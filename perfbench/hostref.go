package main

import "time"

// refNominalMS is what refLoopMS reads on a quiet host, the speed that
// CPU-bound times are rescaled to (see rescaledMedian).
const refNominalMS = 3.0

// refExponent matches refLoopMS's sensitivity to the kernels': between a
// quiet and a loaded minute the loop slowed about 1.8× while the kernels
// slowed about 1.55×, and 0.7 ≈ ln 1.55 / ln 1.8.
const refExponent = 0.7

// refBuf is refLoopMS's working set: 256 KiB, the size of an L2 cache.
var refBuf = make([]uint32, 64<<10)

// refSink keeps refLoopMS's result live.
var refSink uint64

// refLoopMS times a fixed integer loop over refBuf (a multiply, a xor and a
// linear congruential update per word), about 3 ms on a quiet host. On a
// shared host the CPU slows by up to 1.6× for a minute at
// a time when neighbours load it, and CPU-bound work slows with it, so a
// time over this one estimates what the work would take on a quiet host.
// The kernels take it just before each timed call, and the kernels and
// serve-open set-ups (input generation and solves) right after each
// repetition. The loop is the benchmark's own code; no change to the
// repository moves it.
func refLoopMS() float64 {
	t0 := time.Now()
	var h uint64
	for r := 0; r < 30; r++ {
		for i, v := range refBuf {
			if v&1 == 0 {
				h += uint64(v) * 0x9E3779B97F4A7C15
			} else {
				h ^= uint64(i) << 3
			}
			refBuf[i] = v*1664525 + 1013904223
		}
	}
	refSink += h
	return msOf(time.Since(t0))
}
