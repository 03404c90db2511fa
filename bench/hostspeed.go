package main

import (
	"fmt"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's host is shared, and other tenants change how fast the
// simulator runs on it in two ways, both seen on a 2-vCPU Linux VM.
//
// The hypervisor can give the vCPUs to someone else. While it stole about
// 30 % of them, the same ops' wall times varied up to threefold between
// 25-second windows, but the process's CPU time, which leaves stolen time
// out, moved at most 1.3-fold. So the end-to-end timings are CPU time,
// all threads of the process, from getrusage.
//
// Other tenants also contend for the memory system. Then CPU time tracks
// wall time, and the same ops took up to 1.6 times as long in one
// 25-second window as in another, while a loop over cache-resident data
// barely moved. Work on a few MB of randomly accessed memory moved with
// the simulator: dividing op times by hostProbe's time cut the
// largest-to-smallest window ratio from 1.34-1.62 to 1.16-1.20, and a
// power other than 1 did no better. So a run samples the probe between
// ops, and its timings are reported at the speed of a reference host:
// scaled by refProbeMs over the probe's median CPU time.
//
// The probe is fixed here, so no program change can move it, and its
// memory is mapped outside the Go heap, so that it does not change when
// the garbage collector runs.

// refProbeMs is the probe's median CPU time, rounded, on the host the
// baseline in README.md was measured on.
const refProbeMs = 50.0

// probeEvery is how much timed CPU time runs between two probe samples.
const probeEvery = time.Second

const (
	probeTableWords = 1 << 20 // 8 MiB hash table
	probeSortWords  = 1 << 18 // 2 MiB sorted per sample
)

// cpuTime returns the CPU time, user and system, that all threads of the
// process have used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage(RUSAGE_SELF): %v", err)) // fails only for a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type hostProbe struct {
	mem       []byte
	table     []uint64
	src, work []uint64
	samples   []float64 // CPU ms per probe run
	since     time.Duration
}

// newHostProbe maps and fills the probe's memory.
func newHostProbe() (*hostProbe, error) {
	words := probeTableWords + 2*probeSortWords
	mem, err := syscall.Mmap(-1, 0, 8*words, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the host probe's memory: %w", err)
	}
	all := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), words)
	p := &hostProbe{
		mem:   mem,
		table: all[:probeTableWords],
		src:   all[probeTableWords : probeTableWords+probeSortWords],
		work:  all[probeTableWords+probeSortWords:],
		// Room for a run's samples, so that sampling does not show in
		// allocs_per_run.
		samples: make([]float64, 0, 256),
	}
	x := uint64(1)
	for i := range p.table {
		x = splitmix64(x)
		p.table[i] = x
	}
	for i := range p.src {
		x = splitmix64(x)
		p.src[i] = x
	}
	return p, nil
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// run does the probe's fixed work: sort 2 MiB of keys, then look each up
// in the 8 MiB table with a short linear probe and write the slot back.
func (p *hostProbe) run() {
	copy(p.work, p.src)
	slices.Sort(p.work)
	mask := uint64(len(p.table) - 1)
	var acc uint64
	for _, k := range p.work {
		h := (k ^ acc) * 0x9e3779b97f4a7c15 >> 44
		for i := uint64(0); i < 4; i++ {
			acc += p.table[(h+i)&mask]
		}
		p.table[h&mask] = acc
	}
}

// sample times one run of the probe.
func (p *hostProbe) sample() {
	start := cpuTime()
	p.run()
	p.samples = append(p.samples, ms(cpuTime()-start))
	p.since = 0
}

// after records d of timed CPU time and samples once probeEvery has run.
func (p *hostProbe) after(d time.Duration) {
	if p.since += d; p.since >= probeEvery {
		p.sample()
	}
}

// speed returns the host's speed relative to the reference host: above
// 1 when the probe ran faster than refProbeMs.
func (p *hostProbe) speed() float64 {
	return refProbeMs / median(p.samples)
}

func (p *hostProbe) close() error {
	return syscall.Munmap(p.mem)
}
