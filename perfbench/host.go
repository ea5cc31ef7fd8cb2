package main

import (
	"bufio"
	"crypto/sha256"
	"os"
	"runtime"
	"strings"
	"time"
)

// hostRecord describes the machine a run measured on. It is printed with
// the results and never used to scale them: it lets a disagreement between
// two sets of runs be put down to the host rather than the program.
type hostRecord struct {
	CPU         string  `json:"cpu"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go"`
	CalibBefore float64 `json:"calibration_before_khash_s"`
	CalibAfter  float64 `json:"calibration_after_khash_s"`
}

func newHostRecord() *hostRecord {
	return &hostRecord{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibrate is a fixed one-second CPU score: thousands of chained SHA-256
// hashes of a 32-byte block per second on one goroutine.
func calibrate() float64 {
	var sum [32]byte
	n := 0
	start := time.Now()
	for time.Since(start) < time.Second {
		for i := 0; i < 1000; i++ {
			sum = sha256.Sum256(sum[:])
		}
		n += 1000
	}
	return float64(n) / time.Since(start).Seconds() / 1e3
}
