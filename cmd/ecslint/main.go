// Command ecslint runs the project's static analyzer over the module.
//
//	go run ./cmd/ecslint ./...          # lint the whole module
//	go run ./cmd/ecslint -list          # show the registered checks
//	go run ./cmd/ecslint -disable goroutinetrack ./...
//
// Findings print one per line as `file:line: [check] message`, sorted,
// and any finding makes the exit status 1 (2 = usage or load failure).
// Suppress a single line with an annotated directive:
//
//	conn.SetDeadline(time.Now().Add(d)) //ecslint:ignore wallclock real socket deadline
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ecsdns/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("ecslint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	list := fs.Bool("list", false, "list registered checks and exit")
	enable := fs.String("enable", "", "comma-separated checks to run (default: all)")
	disable := fs.String("disable", "", "comma-separated checks to skip")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ecslint [flags] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *list {
		for _, c := range lint.AllChecks() {
			fmt.Printf("%-16s %s\n", c.Name, c.Doc)
		}
		return 0
	}

	cfg := lint.DefaultConfig()
	known := make(map[string]bool)
	for _, name := range lint.CheckNames() {
		known[name] = true
	}
	if *enable != "" {
		cfg.EnableAll = false
		cfg.Enabled = make(map[string]bool)
		for _, name := range strings.Split(*enable, ",") {
			if !known[name] {
				fmt.Fprintf(os.Stderr, "ecslint: unknown check %q (see -list)\n", name)
				return 2
			}
			cfg.Enabled[name] = true
		}
	}
	if *disable != "" {
		if cfg.Enabled == nil {
			cfg.Enabled = make(map[string]bool)
		}
		for _, name := range strings.Split(*disable, ",") {
			if !known[name] {
				fmt.Fprintf(os.Stderr, "ecslint: unknown check %q (see -list)\n", name)
				return 2
			}
			cfg.Enabled[name] = false
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ecslint: %v\n", err)
		return 2
	}
	loader, err := lint.NewLoader(cwd, fs.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ecslint: %v\n", err)
		return 2
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ecslint: %v\n", err)
		return 2
	}
	findings := lint.Run(pkgs, cfg)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "ecslint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}
