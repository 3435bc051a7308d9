package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"ecsdns/bench/stub"
)

// environment is where the harness builds, runs and writes.
type environment struct {
	root    string // the checkout
	workDir string // .bench_build: binaries, target files, scan output
	outDir  string // bench/out: traces and the suite's JSON
	bins    binaries
	buildS  float64 // time to build the three programs (harness.build_s)
}

// prepare builds the programs under test from the tree. Compilation is
// not part of any workload's set-up time; it is reported on its own.
func prepare(root string) (*environment, error) {
	env := &environment{
		root:    root,
		workDir: filepath.Join(root, ".bench_build"),
		outDir:  filepath.Join(root, "bench", "out"),
	}
	binDir := filepath.Join(env.workDir, "bin")
	for _, d := range []string{binDir, env.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	start := stub.Now()
	if msg, err := goBuild(root, binDir+string(filepath.Separator), "./cmd/authdns", "./cmd/recursor", "./cmd/ecsscan"); err != nil {
		return nil, fmt.Errorf("building the programs under test: %w\n%s", err, msg)
	}
	env.buildS = stub.Now().Sub(start).Seconds()
	env.bins = binaries{
		authdns:  filepath.Join(binDir, "authdns"),
		recursor: filepath.Join(binDir, "recursor"),
		ecsscan:  filepath.Join(binDir, "ecsscan"),
	}
	return env, nil
}

// goBuild runs `go build -o out args...` in dir and returns the
// compiler's messages.
func goBuild(dir, out string, args ...string) (string, error) {
	cmd := exec.Command("go", append([]string{"build", "-o", out}, args...)...)
	cmd.Dir = dir
	var msg bytes.Buffer
	cmd.Stdout, cmd.Stderr = &msg, &msg
	err := cmd.Run()
	return msg.String(), err
}

// layerReport is what bench/layers prints: its metrics, or why there
// are none.
type layerReport struct {
	Metrics map[string]float64 `json:"metrics"`
	// Error is the compiler's or the subprocess's message when the layer
	// rows could not be produced; the rows are then null.
	Error string `json:"error,omitempty"`
}

// runLayers builds bench/layers (the only code here that imports the
// module's internal packages) and runs it as a subprocess. A tree whose
// internal APIs have moved on fails to compile it; the end-to-end rows do
// not depend on it, and the layer rows become null with the message.
func runLayers(env *environment, workload string, seed int64, size sizing, micro bool) layerReport {
	bin := filepath.Join(env.workDir, "bin", "ecsbench-layers")
	if msg, err := goBuild(filepath.Join(env.root, "bench"), bin, "-tags", "ecsbench", "./layers"); err != nil {
		return layerReport{Error: fmt.Sprintf("bench/layers does not build: %v\n%s", err, msg)}
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-replica", size.replica.String(),
		"-trace-out", filepath.Join(env.outDir, "trace-"+workload+".json"),
	}
	if micro {
		args = append(args, "-call", size.layerCall.String())
	}
	var out bytes.Buffer
	c, err := spawn("ecsbench-layers", bin, &out, args...)
	if err != nil {
		return layerReport{Error: err.Error()}
	}
	if err := c.wait(150 * time.Second); err != nil {
		return layerReport{Error: err.Error()}
	}
	var rep layerReport
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &rep); err != nil {
		return layerReport{Error: fmt.Sprintf("bench/layers printed no report: %v", err)}
	}
	return rep
}
