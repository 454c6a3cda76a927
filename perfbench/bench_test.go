package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the repository's BENCHMARK.json, read before the tests
// move into their scratch directory.
var benchmarkJSON struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

// srcDir is the benchmark's source directory.
var srcDir string

// TestMain runs the benchmark's main when re-executed as a child (the
// reference process and the command under test), and otherwise runs the
// tests inside a scratch directory, where the runs keep their .bench_build.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &benchmarkJSON)
	}
	if err != nil {
		panic("reading BENCHMARK.json: " + err.Error())
	}
	if srcDir, err = os.Getwd(); err != nil {
		panic(err)
	}
	os.Setenv("PERFBENCH_MAIN", "1")
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	if err := os.Chdir(dir); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestSmoke runs every workload on tiny inputs, untraced and traced, and
// checks that it answers correctly and prints exactly the metrics
// BENCHMARK.json names, each with its unit, both in the result and in the
// human-readable table.
func TestSmoke(t *testing.T) {
	if len(benchmarkJSON.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json names %d workloads", len(benchmarkJSON.Workloads))
	}
	// deep-search is not in BENCHMARK.json (README.md says why) but can
	// still be run by name, so it is smoke-tested too.
	workloads := []string{"deep-search"}
	for _, w := range benchmarkJSON.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := benchmarkJSON.EndToEnd
			name := w + "/untraced"
			if trace {
				want, name = benchmarkJSON.PerLayer, w+"/traced"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				res, _, err := runBench(config{Workload: w, Seed: 3, Seconds: 1, Smoke: true, Trace: trace}, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !isFinite(got.Value):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case !trace && got.Value == 0:
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
					if !strings.Contains(out.String(), "\n"+m.Name+" ") || !strings.Contains(out.String(), " "+m.Unit+"\n") {
						t.Errorf("metric %s is not in the printed table", m.Name)
					}
				}
			})
		}
	}
}

// TestCorruptReferenceFails runs the command with one reference answer
// corrupted: it must exit non-zero and report correct=false.
func TestCorruptReferenceFails(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range benchmarkJSON.Workloads {
		cmd := exec.Command(self, "--workload", w.Name, "--seed", "5", "--seconds", "1", "--trace", "0", "--smoke", "--corrupt-ref")
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("%s: want exit status 1, got %v\n%s", w.Name, err, stdout.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result: %v", w.Name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Fatalf("%s: corrupted reference not caught: correct=%v failed=%d", w.Name, res.Correct, res.Failed)
		}
	}
}

// TestNoSourcesFails runs the wrapper in a directory without the
// repository's sources: it must fail without printing a result.
func TestNoSourcesFails(t *testing.T) {
	cmd := exec.Command("bash", filepath.Join(srcDir, "run.sh"), "--workload", "serve-mix", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = t.TempDir()
	out, err := cmd.Output()
	if err == nil || strings.Contains(string(out), `"correct"`) {
		t.Fatalf("want failure without a result, got err=%v\n%s", err, out)
	}
}
