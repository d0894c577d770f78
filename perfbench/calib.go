package main

import (
	"slices"
	"time"
)

// The runner's host changes the speed it gives this process by a
// quarter and more, within seconds and over tens of minutes, in CPU time
// as well as in wall time, so raw op costs from different runs do not
// compare. The slowdowns come from contention for caches and memory
// rather than from the clock rate: a pure arithmetic loop keeps its
// speed while the pipeline slows. Every op is therefore paired with a
// calibration kernel, fixed work of the same kind that uses no mcpart
// code, timed in CPU time right before the op, and the op's CPU time is
// scaled by calRefMS over the kernel's. That reads each op at one fixed
// host speed, the one at which the kernel takes calRefMS. A change to
// mcpart moves the op times but not the kernel.

// calRefMS is the kernel's CPU time at the reference host speed, near
// its median in the benchmark on the 2-core runner the README describes.
const calRefMS = 4.0

// calRounds sizes the kernel to a few milliseconds.
const calRounds = 6

// calSink keeps the kernel's result alive.
var calSink uint64

// calibrate runs the kernel once and returns its CPU time. The kernel
// does what the compiler pipeline does most: hashes into maps, sorts,
// allocates small linked nodes and chases pointers through them.
func calibrate() time.Duration {
	type node struct {
		next *node
		key  uint64
	}
	c := cpuTime()
	x := uint64(88172645463325252)
	for r := 0; r < calRounds; r++ {
		seen := make(map[uint64]int, 1024)
		keys := make([]uint64, 0, 4096)
		var head *node
		for i := 0; i < 4096; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k := x % 3000
			seen[k]++
			keys = append(keys, k)
			head = &node{next: head, key: k}
		}
		slices.Sort(keys)
		sum := uint64(0)
		for n := head; n != nil; n = n.next {
			sum += uint64(seen[n.key]) * n.key
		}
		calSink += sum + keys[len(keys)/2]
	}
	return cpuTime() - c
}
