// Package linearroad implements a scaled Linear Road benchmark (Arasu et
// al., VLDB 2004), the workload the paper reports running "out of the box"
// (§5). Since the original driving-simulation dataset is not available,
// a deterministic synthetic traffic simulator produces the same record
// structure: vehicles on L expressways emit position reports every 30
// simulated seconds; stopped-vehicle pairs cause accidents; the system
// computes per-minute segment statistics, detects accidents, and issues
// toll notifications under a response-time bound.
//
// Deviations from the full benchmark (also in docs/ARCHITECTURE.md): the
// historical account-balance/expenditure queries are omitted and travel is
// simplified (wrap-around instead of exits). Segment volume uses the
// benchmark's real measure — distinct vehicles per minute, computed by a
// COUNT(DISTINCT) windowed continuous query. The reference implementation
// in this package uses the same definitions, so correctness checks are
// exact.
package linearroad

import (
	"math/rand"
)

// Record is one Linear Road input event (position reports only; Type is
// kept for structural fidelity with the benchmark's input schema).
type Record struct {
	Type  int64 // 0 = position report
	Time  int64 // simulated seconds since start
	VID   int64
	Speed int64 // mph
	XWay  int64
	Lane  int64 // 0..4
	Dir   int64 // 0 east, 1 west
	Seg   int64 // 0..99
	Pos   int64 // feet from the western end (0 .. 100*5280)
}

// Benchmark geometry.
const (
	SegmentsPerXWay = 100
	FeetPerSegment  = 5280
	ReportPeriodSec = 30
)

// GenConfig parameterizes the traffic simulator.
type GenConfig struct {
	XWays           int
	VehiclesPerXWay int
	DurationSec     int
	Seed            int64
	// AccidentEverySec injects one stopped-vehicle-pair accident per
	// expressway every so many simulated seconds (0 disables accidents).
	AccidentEverySec int
	// AccidentDurationSec controls how long stopped vehicles block the
	// road before driving on (default 120).
	AccidentDurationSec int
}

func (c *GenConfig) defaults() {
	if c.XWays <= 0 {
		c.XWays = 1
	}
	if c.VehiclesPerXWay <= 0 {
		c.VehiclesPerXWay = 100
	}
	if c.DurationSec <= 0 {
		c.DurationSec = 300
	}
	if c.AccidentDurationSec <= 0 {
		c.AccidentDurationSec = 120
	}
}

type vehicle struct {
	vid      int64
	xway     int64
	dir      int64
	pos      int64 // feet
	speed    int64 // mph
	entry    int64 // entry time (sec)
	stopUnti int64 // stopped-in-accident until this time (0 = moving)
	lane     int64
	done     bool
}

// Generate produces the position-report stream, ordered by time. The
// output is deterministic for a given config.
func Generate(cfg GenConfig) []Record {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var vehicles []*vehicle
	vid := int64(0)
	for x := 0; x < cfg.XWays; x++ {
		for i := 0; i < cfg.VehiclesPerXWay; i++ {
			dir := int64(rng.Intn(2))
			v := &vehicle{
				vid:   vid,
				xway:  int64(x),
				dir:   dir,
				pos:   int64(rng.Intn(SegmentsPerXWay * FeetPerSegment)),
				speed: 45 + int64(rng.Intn(30)),
				entry: int64(rng.Intn(ReportPeriodSec)), // staggered entries
				lane:  1 + int64(rng.Intn(3)),
			}
			vehicles = append(vehicles, v)
			vid++
		}
	}

	// Accident schedule: pick two vehicles per expressway at the scheduled
	// times and pin them to one position.
	type accident struct {
		time int64
		xway int64
	}
	var schedule []accident
	if cfg.AccidentEverySec > 0 {
		for t := int64(cfg.AccidentEverySec); t < int64(cfg.DurationSec); t += int64(cfg.AccidentEverySec) {
			for x := 0; x < cfg.XWays; x++ {
				schedule = append(schedule, accident{time: t, xway: int64(x)})
			}
		}
	}

	var out []Record
	feetPerTick := func(speedMph int64) int64 {
		// One report period of travel: mph * 5280 / 3600 * 30 sec.
		return speedMph * FeetPerSegment * ReportPeriodSec / 3600
	}
	for t := int64(0); t < int64(cfg.DurationSec); t++ {
		// Trigger scheduled accidents.
		for _, a := range schedule {
			if a.time != t {
				continue
			}
			// Find two moving vehicles on the expressway; stop them at the
			// first one's position.
			var pair []*vehicle
			for _, v := range vehicles {
				if v.xway == a.xway && !v.done && v.stopUnti == 0 {
					pair = append(pair, v)
					if len(pair) == 2 {
						break
					}
				}
			}
			if len(pair) == 2 {
				until := t + int64(cfg.AccidentDurationSec)
				pair[1].pos = pair[0].pos
				pair[1].dir = pair[0].dir
				pair[1].lane = pair[0].lane
				pair[0].stopUnti = until
				pair[1].stopUnti = until
			}
		}
		for _, v := range vehicles {
			if v.done || (t-v.entry)%ReportPeriodSec != 0 || t < v.entry {
				continue
			}
			speed := v.speed
			if v.stopUnti > t {
				speed = 0
			} else {
				if v.stopUnti != 0 && v.stopUnti <= t {
					v.stopUnti = 0
				}
				// Mild speed wander.
				speed += int64(rng.Intn(11)) - 5
				if speed < 10 {
					speed = 10
				}
				v.speed = speed
			}
			seg := v.pos / FeetPerSegment
			if seg >= SegmentsPerXWay {
				seg = SegmentsPerXWay - 1
			}
			out = append(out, Record{
				Type: 0, Time: t, VID: v.vid, Speed: speed,
				XWay: v.xway, Lane: v.lane, Dir: v.dir, Seg: seg, Pos: v.pos,
			})
			// Advance (direction 0 = increasing position).
			if speed > 0 {
				delta := feetPerTick(speed)
				if v.dir == 0 {
					v.pos += delta
				} else {
					v.pos -= delta
				}
				if v.pos < 0 || v.pos >= SegmentsPerXWay*FeetPerSegment {
					// Wrap around: the vehicle re-enters (keeps the stream
					// rate steady for the experiment's duration).
					v.pos = (v.pos + SegmentsPerXWay*FeetPerSegment) % (SegmentsPerXWay * FeetPerSegment)
				}
			}
		}
	}
	return out
}
