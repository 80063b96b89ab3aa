package gen

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// emittedDir is where a member's emitted source and binary live. The path
// is stable so that the go build cache recognises an unchanged source.
func emittedDir(key string) string {
	return filepath.Join(os.TempDir(), "polypipe-benchmark", "aot", strings.NewReplacer("/", "_", "=", "").Replace(key))
}

// BuildEmitted writes src, the emitted program of the member called
// key, as a main package and builds it, returning the binary's path and
// how long go build took.
func BuildEmitted(key string, src []byte) (bin string, took time.Duration, err error) {
	dir := emittedDir(key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	file := filepath.Join(dir, "main.go")
	if err := os.WriteFile(file, src, 0o644); err != nil {
		return "", 0, err
	}
	bin = filepath.Join(dir, "prog")
	cmd := exec.Command("go", "build", "-o", bin, file)
	start := time.Now()
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", 0, fmt.Errorf("go build %s: %v\n%s", file, err, out)
	}
	return bin, time.Since(start), nil
}

// EmittedReps is the repetition count handed to an emitted binary,
// which reports the best of that many pipelined runs as pipe=. A run
// takes a fraction of a millisecond, so fewer repetitions leave the
// reading to the process's first, cold runs.
const EmittedReps = 100

// RunEmitted runs an emitted binary once on GOMAXPROCS workers and
// parses its report line, "ok hash=%x tasks=%d seq=%v pipe=%v", where
// pipe is the best of EmittedReps pipelined runs.
func RunEmitted(bin string) (hash uint64, tasks int, seq, pipe time.Duration, err error) {
	out, err := exec.Command(bin, fmt.Sprint(runtime.GOMAXPROCS(0)), fmt.Sprint(EmittedReps)).CombinedOutput()
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("%s: %v\n%s", bin, err, out)
	}
	var seqStr, pipeStr string
	if _, err := fmt.Sscanf(strings.TrimSpace(string(out)), "ok hash=%x tasks=%d seq=%s pipe=%s", &hash, &tasks, &seqStr, &pipeStr); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("%s: cannot parse %q: %w", bin, out, err)
	}
	if seq, err = time.ParseDuration(seqStr); err != nil {
		return 0, 0, 0, 0, err
	}
	pipe, err = time.ParseDuration(pipeStr)
	return hash, tasks, seq, pipe, err
}
