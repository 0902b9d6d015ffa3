package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// environment is recorded in every result file: a number means little
// without the machine and settings that produced it.
type environment struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	Seed       int64   `json:"seed"`
	Traced     bool    `json:"traced"`
	WarmupS    float64 `json:"warmup_s"`
	WindowS    float64 `json:"window_s"`
	Buckets    int     `json:"buckets"`
	SetupRuns  int     `json:"setup_repeats"`
	ScratchFS  string  `json:"journal_tmpdir_fs"`
	ProcIO     bool    `json:"proc_self_io"`
}

func readEnvironment(root string) environment {
	e := environment{
		GitSHA:     "unknown", // the driver's checkout is not a git repository
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel:     "unknown",
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if sha, err := git("rev-parse", "HEAD"); err == nil {
		e.GitSHA = sha
		if changed, err := git("status", "--porcelain"); err == nil && changed != "" {
			e.GitSHA += "-dirty"
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	_, _, e.ProcIO = procIO()
	return e
}

// fsName names the filesystem holding dir, where the journal's appends
// and fsyncs land.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%X", uint32(st.Type))
}

// outDir is benchmark/out under the checkout root: git-ignored, and the
// only place the benchmark writes.
func outDir() string {
	root := "."
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		root = ".."
	}
	return filepath.Join(root, "benchmark", "out")
}
