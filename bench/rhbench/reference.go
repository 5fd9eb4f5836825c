package main

import (
	"math/rand"
	"slices"
	"sync"
	"time"
)

// The reference kernel is fixed work — sorting a fixed shuffle of 64Ki
// integers, repeatedly, on `workers` goroutines — that uses only the
// standard library, so no change to the repository can change its cost.
// A shared machine's speed drifts by tens of percent over minutes,
// moving every timing together; the harness times the kernel around each
// rep and before each group of set-ups, and scales those timings by
// refNominal over the kernel's time. That reports them in seconds at the
// machine speed where the kernel takes refNominal — its time on the
// 2-vCPU Xeon VM the benchmark was developed on, so there scaled seconds
// read as seconds — and cancels much of the drift. Not all of it: the
// simulator slows more than the kernel when the host is busy (README.md).
const refNominal = 0.09 // seconds

const refSorts = 16

var (
	refOnce    sync.Once
	refInput   []int32
	refScratch [workers][]int32
	refSink    [workers]int32 // keeps the kernel's results live
)

// refSeconds times one run of the reference kernel.
func refSeconds() float64 {
	refOnce.Do(func() {
		rng := rand.New(rand.NewSource(1))
		refInput = make([]int32, 64<<10)
		for i := range refInput {
			refInput[i] = rng.Int31()
		}
		for g := range refScratch {
			refScratch[g] = make([]int32, len(refInput))
		}
	})
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(s []int32, sink *int32) {
			defer wg.Done()
			for i := 0; i < refSorts; i++ {
				copy(s, refInput)
				slices.Sort(s)
			}
			*sink = s[len(s)/2]
		}(refScratch[g], &refSink[g])
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}
