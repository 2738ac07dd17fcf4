package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"math/big"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Reporting at nominal host speed.
//
// The sandbox this benchmark runs in changes under it, two ways, for
// minutes at a time and by up to 2x each:
//
//   - the cores get slower while they run (a busy neighbour on the host):
//     the same code costs 1.5x the CPU time and 1.5x the wall time it
//     cost a minute earlier, and the guest sees no steal;
//   - the hypervisor takes the cores away (steal): wall time doubles, CPU
//     time does not, and /proc/stat says how much was taken.
//
// Within one regime a run repeats to ~3 %. Across regimes every raw
// timing moves by 30-100 %, which no run length the budget allows can
// average out. So every timed interval is corrected for both:
//
//   - its wall time counts only what the host gave the guest: elapsed
//     minus stolen time per CPU (interval.given);
//   - it is bracketed by short runs of a fixed kernel — big-integer
//     exponentiation, hashing, gob encode/decode with their allocations:
//     the system's instruction mix, written against the standard library
//     only, so no later change to this repository can make it faster —
//     whose rate PER CPU-SECOND, over a nominal constant, is the speed of
//     the cores while they run. Durations (wall and CPU) are multiplied by
//     it, rates divided.
//
// A change that makes the system faster moves the metric; the host
// getting slower or busier does not. The diagnostics print host.speed_*
// and host.given_share, and raw values beside the scaled ones.

// nominalKernelRate is the kernel's iterations per CPU-second on the
// reference box on a good minute. Only ratios between runs matter; the
// constant just keeps scaled values near raw ones.
const nominalKernelRate = 2000.0

// hostMark is a point in time as the host accounts for it.
type hostMark struct {
	t     time.Time
	cpu   time.Duration // this process, user + system
	steal time.Duration // the guest, summed over CPUs
}

func mark() hostMark {
	return hostMark{t: time.Now(), cpu: cpuTime(), steal: stealTime()}
}

// interval is a stretch of the run and what the host did during it.
type interval struct {
	wall  time.Duration // elapsed
	given time.Duration // elapsed minus the stolen time per CPU
	cpu   time.Duration // CPU time this process spent
}

func (m hostMark) since() interval {
	now := mark()
	iv := interval{wall: now.t.Sub(m.t), cpu: now.cpu - m.cpu}
	iv.given = iv.wall - (now.steal-m.steal)/time.Duration(runtime.NumCPU())
	if iv.given <= 0 { // tick-granular steal on a very short interval
		iv.given = iv.wall
	}
	return iv
}

// share is the part of the interval the host gave the guest.
func (iv interval) share() float64 { return float64(iv.given) / float64(iv.wall) }

// stealTime reads the guest's stolen time from /proc/stat's aggregate
// cpu line (eighth value, in USER_HZ = 100 ticks); 0 where there is none.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

type kernelRec struct {
	Key     uint64
	Payload []byte
	Digests [][]byte
}

type kernel struct {
	n, x   *big.Int
	e1, e2 *big.Int
	recs   []kernelRec
	buf    [64]byte
}

func newKernel() *kernel {
	// Any odd 1024-bit modulus does: the kernel wants RSA-sized
	// arithmetic, not a key.
	n := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 1024), big.NewInt(105))
	k := &kernel{
		n: n, x: big.NewInt(0x10001),
		e1: big.NewInt(65537),
		e2: new(big.Int).Lsh(big.NewInt(0x5a5a5a5a5a5a5a5b), 64),
	}
	for i := 0; i < 64; i++ {
		r := kernelRec{Key: uint64(i), Payload: make([]byte, 64)}
		for j := 0; j < 4; j++ {
			r.Digests = append(r.Digests, make([]byte, 32))
		}
		k.recs = append(k.recs, r)
	}
	return k
}

// once is one iteration of fixed work.
func (k *kernel) once() {
	for i := 0; i < 4; i++ {
		k.x.Exp(k.x, k.e1, k.n)
	}
	k.x.Exp(k.x, k.e2, k.n)
	for i := 0; i < 512; i++ {
		sum := sha256.Sum256(k.buf[:])
		copy(k.buf[32:], sum[:])
	}
	var b bytes.Buffer
	var back []kernelRec
	if gob.NewEncoder(&b).Encode(k.recs) == nil {
		gob.NewDecoder(&b).Decode(&back)
	}
}

// hostSpeed runs the kernel on every core for d and returns how fast the
// cores are while they run, relative to nominal: kernel iterations per
// CPU-second of this process. Stolen time does not enter it.
func hostSpeed(d time.Duration) float64 {
	procs := runtime.GOMAXPROCS(0)
	counts := make([]int, procs)
	var wg sync.WaitGroup
	start := mark()
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			k := newKernel()
			for time.Since(start.t) < d {
				k.once()
				counts[p]++
			}
		}(p)
	}
	wg.Wait()
	iv := start.since()
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(total) / iv.cpu.Seconds() / nominalKernelRate
}
