package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// resetPeakRSS resets the process's VmHWM to its current RSS, so a later
// peakRSSMiB covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM from /proc/self/status.
func peakRSSMiB() (float64, error) {
	kb, err := procField("/proc/self/status", "VmHWM:")
	return float64(kb) / 1024, err
}

// writtenBytes is the process's wchar: bytes passed to write-like
// system calls so far.
func writtenBytes() (int64, error) {
	return procField("/proc/self/io", "wchar:")
}

func procField(path, key string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, key); ok {
			return strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// dirMiB is the total size of the regular files under dir.
func dirMiB(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20), err
}

// stealTicks is the machine's cumulative stolen CPU time in clock ticks
// (the steal column of /proc/stat): time the hypervisor ran something
// else while this machine's CPUs wanted to run.
func stealTicks() (int64, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("/proc/stat: unexpected cpu line %q", line)
	}
	return strconv.ParseInt(f[8], 10, 64)
}
