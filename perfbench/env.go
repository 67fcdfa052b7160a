package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sutBinaries are the commands the benchmark builds from the checkout:
// the serving fleet and the artifact generators.
var sutBinaries = []string{"serve", "gateway", "gennet", "gentraj", "train"}

// fixtureSteps make the serving artifacts: a 20x20 grid, a four-slice
// trajectory set with slice 1 as the rush hour, and one hybrid model
// per slice trained with cmd/train's defaults. The fixture does not
// depend on the workload seed: training takes minutes on two cores, so
// it is made once per build of the generators and reused, and the seed
// varies the traffic instead (queries, departures, the drift stream).
var fixtureSteps = [][]string{
	{"gennet", "-rows", "20", "-cols", "20", "-out", "net.srg"},
	{"gentraj", "-net", "net.srg", "-slices", "4", "-peak", "1", "-out", "trips.srt"},
	{"train", "-net", "net.srg", "-traj", "trips.srt", "-slices", "4", "-out", "model.srhm"},
}

// env locates the checkout and the benchmark's build directory.
type env struct {
	root  string // checkout root: go.mod, cmd/, internal/
	build string // everything the benchmark writes lives below here
	bin   string // serving binaries
	run   string // this run's inputs and logs
}

func newEnv(root, build string, seed uint64, workload string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "serve")); err != nil {
		return nil, fmt.Errorf("%s is not a stochroute checkout: %w", root, err)
	}
	if build == "" {
		build = filepath.Join(root, ".bench_build")
	}
	e := &env{root: root, build: build, bin: filepath.Join(build, "bin")}
	e.run = filepath.Join(build, "runs", fmt.Sprintf("%s-%d", workload, seed))
	if err := os.RemoveAll(e.run); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.run, 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

// buildSUT compiles the serving and generator commands from the
// checkout's sources. The Go build cache makes repeated runs cheap.
func (e *env) buildSUT() error {
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return err
	}
	args := []string{"build", "-o", e.bin + string(os.PathSeparator)}
	for _, b := range sutBinaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = e.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build: %w", err)
	}
	return nil
}

func (e *env) binPath(name string) string { return filepath.Join(e.bin, name) }

// fixture is one set of serving artifacts.
type fixture struct {
	dir    string
	trainS float64 // cmd/train wall time when the fixture was made
}

func (f fixture) net() string   { return filepath.Join(f.dir, "net.srg") }
func (f fixture) traj() string  { return filepath.Join(f.dir, "trips.srt") }
func (f fixture) model() string { return filepath.Join(f.dir, "model.srhm") }

// makeFixture returns the artifacts for the current generator
// binaries, making them when no earlier run has. The cache key hashes
// the generator binaries and their arguments, so a change to the
// network generator, the trajectory simulator or the trainer makes a
// fresh fixture.
func (e *env) makeFixture(steps [][]string) (fixture, error) {
	h := sha256.New()
	for _, step := range steps {
		if err := hashFile(h, e.binPath(step[0])); err != nil {
			return fixture{}, err
		}
		fmt.Fprintln(h, strings.Join(step, " "))
	}
	key := hex.EncodeToString(h.Sum(nil))[:16]
	f := fixture{dir: filepath.Join(e.build, "fixture", key)}
	if raw, err := os.ReadFile(filepath.Join(f.dir, "train_s")); err == nil {
		f.trainS, err = strconv.ParseFloat(strings.TrimSpace(string(raw)), 64)
		return f, err
	}
	tmp := f.dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return f, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return f, err
	}
	logf("making artifact fixture %s (trains the slice models; minutes on first use)", key)
	for _, step := range steps {
		t0 := time.Now()
		cmd := exec.Command(e.binPath(step[0]), step[1:]...)
		cmd.Dir = tmp
		out, err := cmd.CombinedOutput()
		if err != nil {
			return f, fmt.Errorf("%s: %w\n%s", step[0], err, out)
		}
		if step[0] == "train" {
			f.trainS = time.Since(t0).Seconds()
		}
	}
	if err := os.WriteFile(filepath.Join(tmp, "train_s"), []byte(strconv.FormatFloat(f.trainS, 'f', -1, 64)), 0o644); err != nil {
		return f, err
	}
	return f, os.Rename(tmp, f.dir)
}

func hashFile(h io.Writer, path string) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	_, err = io.Copy(h, fh)
	return err
}

// sourceHash identifies the code under test: a SHA-256 over the
// checkout's Go sources and module file, outside the benchmark's own
// directories. The checkout need not be a git repository.
func (e *env) sourceHash() (string, error) {
	var files []string
	err := filepath.WalkDir(e.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != e.root && (strings.HasPrefix(d.Name(), ".") || path == e.build || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(e.root, f)
		fmt.Fprintln(h, rel)
		if err := hashFile(h, f); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// machine is the metadata printed with every result.
type machine struct {
	NProc     int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
	Source    string `json:"source_sha256"`
}

func describeMachine(e *env) machine {
	m := machine{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if fh, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(fh)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		fh.Close()
	}
	if s, err := e.sourceHash(); err == nil {
		m.Source = s
	}
	return m
}

// stealSeconds is the CPU time the hypervisor gave to other guests so
// far, summed over CPUs (/proc/stat), or 0 where unknown. A window
// with much steal measured a busy neighbour as well as the code.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / clockTicks
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
