// Package profiling wires the conventional -cpuprofile, -memprofile and
// -trace flags into a command-line tool, so the benchmark and campaign
// drivers can be profiled under production-shaped load (full matrices,
// sharded testbeds) rather than only through go test microbenchmarks.
package profiling

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags holds the output paths bound by Register; empty paths disable
// the corresponding collector.
type Flags struct {
	CPU   string
	Mem   string
	Trace string
}

// Register binds the three flags on fs. Call before fs.Parse.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.Mem, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&f.Trace, "trace", "", "write a runtime execution trace to this file")
}

// Start begins whichever collectors the flags request and returns a
// stop function that flushes them (taking the heap profile last, after
// a forced GC). The stop function must run before the process exits or
// the profiles are truncated.
func (f *Flags) Start() (func() error, error) {
	var cpuF, traceF *os.File
	abort := func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if traceF != nil {
			traceF.Close()
		}
	}
	if f.CPU != "" {
		var err error
		if cpuF, err = os.Create(f.CPU); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	if f.Trace != "" {
		var err error
		if traceF, err = os.Create(f.Trace); err != nil {
			abort()
			return nil, err
		}
		if err = trace.Start(traceF); err != nil {
			abort()
			return nil, err
		}
	}
	stop := func() error {
		var first error
		keep := func(err error) {
			if err != nil && first == nil {
				first = err
			}
		}
		if cpuF != nil {
			pprof.StopCPUProfile()
			keep(cpuF.Close())
		}
		if traceF != nil {
			trace.Stop()
			keep(traceF.Close())
		}
		if f.Mem != "" {
			mf, err := os.Create(f.Mem)
			if err != nil {
				keep(err)
			} else {
				runtime.GC()
				keep(pprof.WriteHeapProfile(mf))
				keep(mf.Close())
			}
		}
		return first
	}
	return stop, nil
}
