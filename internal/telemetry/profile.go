package telemetry

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
)

// StartHostProfiles starts the requested host-side profilers (any
// argument may be empty): a CPU profile, a heap profile written at
// stop, and a runtime execution trace. It returns a stop function that
// finishes and closes everything; callers must invoke it before the
// process exits (explicitly on os.Exit paths — deferred calls do not
// run there).
func StartHostProfiles(cpuFile, memFile, traceFile string) (stop func() error, err error) {
	var stops []func() error
	fail := func(err error) (func() error, error) {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]() //nolint:errcheck // already failing
		}
		return nil, err
	}
	if cpuFile != "" {
		f, err := os.Create(cpuFile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		stops = append(stops, func() error {
			pprof.StopCPUProfile()
			return f.Close()
		})
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return fail(err)
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			return fail(err)
		}
		stops = append(stops, func() error {
			rtrace.Stop()
			return f.Close()
		})
	}
	if memFile != "" {
		stops = append(stops, func() error {
			f, err := os.Create(memFile)
			if err != nil {
				return err
			}
			runtime.GC() // up-to-date allocation data
			werr := pprof.WriteHeapProfile(f)
			cerr := f.Close()
			return errors.Join(werr, cerr)
		})
	}
	return func() error {
		var errs []error
		for i := len(stops) - 1; i >= 0; i-- {
			if err := stops[i](); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}, nil
}
