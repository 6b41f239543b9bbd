package main

import "time"

// The reference box is a couple of vCPUs of a shared host whose speed
// changes for minutes at a time: the same binary on the same input runs a
// quarter slower while the neighbours are busy, every quantile of every op
// moves with it, and no statistic taken over the ops alone removes that.
// So every timed phase also runs a yardstick, a fixed piece of work that
// no change to the engine can touch, between its ops, and reports its
// timings at the speed of a host that runs the yardstick in yardNominal.
const (
	// yardNominal is the yardstick's duration on the reference box in a
	// quiet minute: scaled and raw values agree there.
	yardNominal = 250 * time.Microsecond
	// yardEvery is the share of a phase the yardstick takes: one run (about
	// a third of a millisecond) for every yardEvery of the phase.
	yardEvery = 20 * time.Millisecond
	// yardBurst is how many runs precede and follow each fresh set-up.
	yardBurst = 12
)

// yardstick is the reference work and the durations it took in one phase.
// One goroutine owns it.
type yardstick struct {
	buf   [8192]uint64 // 64 KiB: stays in the core's own caches
	sink  uint64       // keeps the compiler from dropping the work
	begun time.Time
	runs  []float64 // seconds
}

func newYardstick() *yardstick {
	y := &yardstick{begun: time.Now()}
	for i := range y.buf {
		y.buf[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return y
}

// run does the reference work once: forty passes of shift-with-carry, and,
// xor and add over the buffer, the word-at-a-time bit-stream arithmetic the
// engine's kernels are made of, without a single allocation.
func (y *yardstick) run() {
	t0 := time.Now()
	var acc uint64
	for pass := 0; pass < 40; pass++ {
		var carry uint64
		for i := range y.buf {
			v := y.buf[i]
			s := v<<1 | carry
			carry = v >> 63
			y.buf[i] = (s &^ v) ^ acc
			acc += s
		}
	}
	y.sink += acc
	y.runs = append(y.runs, time.Since(t0).Seconds())
}

// catchUp runs the yardstick until it has run once for every yardEvery
// since the phase began. A client calls it between ops: after a long op it
// runs a burst, during short ones it runs now and then.
func (y *yardstick) catchUp() {
	for due := int(time.Since(y.begun) / yardEvery); len(y.runs) <= due; {
		y.run()
	}
}

// burst runs the yardstick yardBurst times.
func (y *yardstick) burst() {
	for i := 0; i < yardBurst; i++ {
		y.run()
	}
}

// speed is how fast the host ran during the phase, as a share of the
// nominal host's speed: the nominal duration over the harmonic mean of the
// measured ones. The host is slowed in spells, most of them shorter than
// an op, so an op gets through its work at the host's mean rate over those
// spells; a yardstick run is shorter than most spells, its duration is the
// inverse of the rate at that moment, and the mean of the inverses is the
// mean rate. (The median over-corrects: once the host is slow more than
// half of the time it reads as slow as the spells themselves, while the ops
// are only as slow as their mix.)
func (y *yardstick) speed() float64 {
	var rate float64
	for _, d := range y.runs {
		rate += 1 / d
	}
	return yardNominal.Seconds() * rate / float64(len(y.runs))
}

// atNominalSpeed restates a metric measured on a host of the given speed
// as the nominal host would have measured it: durations stretch with the
// host's speed and rates shrink with it; sizes and counts stay.
func atNominalSpeed(m metric, speed float64) metric {
	switch m.Unit {
	case "s", "ms":
		m.Value, m.Q1, m.Q3 = m.Value*speed, m.Q1*speed, m.Q3*speed
	case "1/s", "MB/s":
		m.Value, m.Q1, m.Q3 = m.Value/speed, m.Q1/speed, m.Q3/speed
	}
	return m
}
