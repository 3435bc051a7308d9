package ecsdns

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flagsAllowed lists the command-line flags of cmd/* that nothing in the
// repository sets and that stay anyway, each with its reason, by
// "binary -flag". An entry that something sets again, or whose flag is
// gone, fails TestEveryFlagSet until it goes from this list, so the list
// only shrinks.
var flagsAllowed = map[string]string{
	"authdns -answer":        "deployment: the address the wildcard zone answers with is the operator's",
	"authdns -zone":          "deployment: the zone served is the operator's",
	"recursor -zone":         "deployment: the zone the upstream authority serves is the operator's",
	"authdns -max-conns":     "deployment: the TCP connection cap is sized to the host; dnsserver's tests turn MaxConns, which it sets",
	"recursor -max-conns":    "deployment: the TCP connection cap is sized to the host; dnsserver's tests turn MaxConns, which it sets",
	"authdns -max-inflight":  "deployment: the worker-pool cap is sized to the host; dnsserver's tests turn MaxInflight, which it sets",
	"recursor -max-inflight": "deployment: the worker-pool cap is sized to the host; dnsserver's tests turn MaxInflight, which it sets",
	"recursor -negative-ttl": "deployment: an operator's TTL policy; ecscache's tests turn NegativeTTL, which it sets",
	"recursor -breaker":      "a switch: TestNewPoolSwitches turns the live.NewPool argument it feeds",
	"recursor -edns-ladder":  "a switch: TestNewPoolSwitches turns the live.NewPool argument it feeds",
	"recursor -profile":      "the ECS behaviour a deployed recursor shows is the operator's; ecslab runs every profile in process",
	"ecsscan -name":          "deployment: the base name under the operator's zone that probes ask for",
	"ecsscan -prefix":        "deployment: the client subnet a single-target probe injects is the operator's",
	"ecsscan -timeout":       "deployment: the per-attempt deadline fits the network scanned; TestBulkScanStdin gives bulkScan one of its own",
	"ecsreplay -in":          "input: the trace's path; the default, standard input, is what tracegen's output is piped into",
	"tracegen -dataset":      "chooses which of the paper's two datasets to write; the default is the all-names trace",
	"tracegen -resolvers":    "a trace's size: the default is the paper's dataset, and a smaller one is the operator's",
}

// flagSetters are the places a flag counts as set in: the benchmark,
// which drives the binaries (read here, never edited), verify.sh, the
// examples, the tests of cmd/*, and the README's recipes (its fenced
// code blocks).
var flagSetters = []string{"bench", "verify.sh", "examples", "cmd", "README.md"}

// setFlag matches a flag as a command line or an argument list sets it:
// "-name" after a blank, a quote or an opening bracket, and before a
// blank, "=", a quote, a comma or a closing bracket.
var setFlag = regexp.MustCompile("(?:^|[\\s\"'`(\\[{])-([a-z][a-z0-9-]*)(?:[\\s=\"'`,)\\]}]|$)")

// TestEveryFlagSet holds the binaries to the knobs something turns, as
// TestEveryFieldSet holds internal/ to its fields. It reads every flag
// cmd/*/main.go declares (flag.String, flag.Int, flag.Bool and the rest,
// the *Var forms included) and fails on one that no flagSetters file
// sets and flagsAllowed does not list: a flag nothing sets is a default
// nothing checks. A flag is told by its name, so two binaries' flags of
// one name pass together.
func TestEveryFlagSet(t *testing.T) {
	if raceEnabled {
		t.Skip("what the files set does not depend on the race detector; the plain run checks it")
	}
	declared := map[string]string{} // "binary -flag" -> flag
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go: %v", err)
	}
	fset := token.NewFileSet()
	for _, path := range mains {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		bin := filepath.Base(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
				return true
			}
			arg := 0
			switch {
			case strings.HasSuffix(sel.Sel.Name, "Var"):
				arg = 1
			case sel.Sel.Name == "Func":
			case sel.Sel.Name == "String", sel.Sel.Name == "Bool", sel.Sel.Name == "Duration",
				strings.HasPrefix(sel.Sel.Name, "Int"), strings.HasPrefix(sel.Sel.Name, "Uint"), strings.HasPrefix(sel.Sel.Name, "Float"):
			default:
				return true
			}
			if len(call.Args) <= arg {
				return true
			}
			lit, ok := call.Args[arg].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: flag.%s with a name that is not a literal", fset.Position(call.Pos()), sel.Sel.Name)
				return true
			}
			name, _ := strconv.Unquote(lit.Value)
			declared[bin+" -"+name] = name
			return true
		})
	}

	set := map[string]bool{}
	for _, root := range flagSetters {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == filepath.Join("bench", "out") {
					return filepath.SkipDir // what a benchmark run writes, not what it sets
				}
				return nil
			}
			text := ""
			switch {
			case path == "README.md":
				b, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				text = fencedBlocks(string(b))
			case root == "cmd" && !strings.HasSuffix(path, "_test.go"):
				return nil
			default:
				b, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				text = string(b)
			}
			for _, m := range setFlag.FindAllStringSubmatch(text, -1) {
				set[m[1]] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var unset []string
	for key, name := range declared {
		if !set[name] {
			unset = append(unset, key)
		}
	}
	sort.Strings(unset)
	isUnset := map[string]bool{}
	for _, key := range unset {
		isUnset[key] = true
		if _, ok := flagsAllowed[key]; !ok {
			t.Errorf("%s is set by nothing in %s: delete it, set it where a recipe or test needs it, or list it in flagsAllowed with its reason", key, strings.Join(flagSetters, ", "))
		}
	}
	for key, reason := range flagsAllowed {
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("flagsAllowed lists %s without a reason", key)
		case !isUnset[key]:
			t.Errorf("flagsAllowed lists %s, which is now set or gone: take it off the list", key)
		}
	}
	t.Logf("%d flags in %d binaries, %d set by nothing and allowed", len(declared), len(mains), len(unset))
}

// fencedBlocks returns the lines of markdown's fenced code blocks.
func fencedBlocks(markdown string) string {
	var b strings.Builder
	in := false
	for _, line := range strings.Split(markdown, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			in = !in
			continue
		}
		if in {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
