// Command perfbench is the repository's benchmark: it drives an in-process
// kplexd over loopback HTTP with one of three workloads, checks every
// answer against single-threaded library references, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload serve-mix|sweep-sparse|deep-search --seed N
//	          --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// with spans around every call into kplexd plus an in-process replay of
// the layers, and prints the per-layer metrics. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// buildDir is where the benchmark keeps everything it writes, relative to
// the checkout it runs in.
const buildDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errInvalid marks a run whose measurement is not trustworthy (the open
// loop's generator fell behind); no metrics are reported for it.
var errInvalid = errors.New("invalid run")

type config struct {
	Workload   string
	Seed       int64
	Seconds    float64
	Trace      bool
	Smoke      bool
	CorruptRef bool
}

func main() {
	var cfg config
	var trace int
	var refDir string
	flag.StringVar(&cfg.Workload, "workload", "", "serve-mix, sweep-sparse or deep-search")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed: generates the graphs and the request order")
	flag.Float64Var(&cfg.Seconds, "seconds", 25, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.BoolVar(&cfg.Smoke, "smoke", false, "tiny inputs (self-tests)")
	flag.BoolVar(&cfg.CorruptRef, "corrupt-ref", false, "corrupt one reference answer; the run must then fail (self-tests)")
	flag.StringVar(&refDir, "ref-dir", "", "internal: compute the reference answers of the inputs in this directory")
	flag.Parse()
	cfg.Trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if refDir != "" {
		if err := refMain(cfg, refDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: references:", err)
			os.Exit(1)
		}
		return
	}
	res, prov, err := runBench(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errInvalid) {
			os.Exit(3)
		}
		os.Exit(1)
	}
	if err := writeResult(cfg, res, prov); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving result:", err)
		os.Exit(1)
	}
	raw, _ := json.Marshal(res)
	fmt.Println(string(raw))
	if !res.Correct {
		os.Exit(1)
	}
}

// refMain is the child process that computes the reference answers, so
// their memory never counts in the measured process's peak RSS.
func refMain(cfg config, dir string) error {
	s, err := workloadSpec(cfg.Workload, cfg.Smoke)
	if err != nil {
		return err
	}
	refs, err := computeRefs(s, filepath.Join(dir, "data"), filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	return writeJSONFile(filepath.Join(dir, "refs.json"), refs)
}

// references runs the reference child on the inputs in dir.
func references(cfg config, dir string) (map[string]*refAnswer, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--ref-dir", dir, "--workload", cfg.Workload, "--seed", strconv.FormatInt(cfg.Seed, 10)}
	if cfg.Smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("reference process: %w", err)
	}
	var refs map[string]*refAnswer
	return refs, readJSONFile(filepath.Join(dir, "refs.json"), &refs)
}

// provenance records where and on what a result was measured.
type provenance struct {
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Date       string `json:"date"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
}

func getProvenance(cfg config) provenance {
	p := provenance{
		Commit: "unknown", Dirty: "unknown",
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date: time.Now().UTC().Format(time.RFC3339), Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace,
	}
	// The commit comes from the VCS stamp go build embeds when it builds
	// inside a git checkout; a source tree without .git has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return p
}

// writeResult keeps the full record of a run next to the build.
func writeResult(cfg config, res *result, prov provenance) error {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.Trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.Workload, cfg.Seed, trace)
	return writeJSONFile(filepath.Join(dir, name), map[string]any{"provenance": prov, "result": res})
}

// peakRSSMiB reads this process's VmHWM.
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
