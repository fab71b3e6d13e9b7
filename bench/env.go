package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// environment is stamped on every result so that two results are only
// ever compared when they came from the same kind of box.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	// OutDirFS is the filesystem type holding bench/out, where the
	// daemon workload journals; Tmpfs says whether that is memory.
	OutDirFS string `json:"out_dir_fs"`
	Tmpfs    bool   `json:"journal_on_tmpfs"`
}

func readEnvironment(outDir string) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		OutDirFS:   fsType(outDir),
	}
	env.Tmpfs = env.OutDirFS == "tmpfs"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			env.Commit = rev + dirty
		}
	}
	return env
}

// procField returns the value of the first "key : value" line of a
// /proc file, or "unknown" where there is no such file.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return line
}

// fsType names the filesystem dir lives on: the type of the longest
// mount point in /proc/mounts that is a prefix of dir.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	if real, err := filepath.EvalSymlinks(abs); err == nil {
		abs = real
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, bestType := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if mp != "/" && abs != mp && !strings.HasPrefix(abs, mp+"/") {
			continue
		}
		if len(mp) >= len(best) {
			best, bestType = mp, fields[2]
		}
	}
	return bestType
}

// peakRSSMiB is the process's high-water resident set (VmHWM). Where
// /proc is missing it falls back to the Go runtime's own total.
func peakRSSMiB() float64 {
	if v := procField("/proc/self/status", "VmHWM"); v != "unknown" {
		if kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64); err == nil {
			return kb / 1024
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}
