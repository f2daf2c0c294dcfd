package linearroad

// Reference is the oracle implementation of the (scaled) Linear Road
// semantics, computed with plain maps in a single pass. The DataCell
// system must produce identical tolls and alerts; the experiment harness
// compares the two.
//
// Semantics of this reproduction (see docs/ARCHITECTURE.md for the
// deviations from the full benchmark):
//
//   - Minute m covers simulated seconds [60m, 60m+60).
//   - Segment statistics per (xway, dir, seg, minute): distinct-vehicle
//     count (the benchmark's volume measure) and mean report speed.
//   - LAV(xway,dir,seg,m): mean of the per-minute mean speeds over the up
//     to five minutes m-5..m-1 that have data.
//   - A vehicle is stopped once it reports the same position four
//     consecutive times; two stopped vehicles at one (xway,lane,dir,pos)
//     make an accident, active until either reports a new position.
//   - On every segment crossing (including a vehicle's first report) the
//     vehicle receives a notification: an accident alert if an active
//     accident lies within five segments downstream, otherwise a toll
//     2*(cnt-50)^2 when LAV < 40 mph and the previous minute had more
//     than 50 distinct vehicles in the segment; otherwise toll 0.

// Notification is the per-crossing answer the system owes each vehicle.
type Notification struct {
	VID  int64
	Time int64
	Toll int64
	// Accident reports an accident alert (toll exempt).
	Accident bool
}

// StoppedQuorum is how many identical consecutive position reports mark a
// vehicle as stopped.
const StoppedQuorum = 4

// TollThreshold is the distinct-vehicle threshold for charging (the
// benchmark's 50 vehicles).
const TollThreshold = 50

// LAVThreshold is the speed below which a segment is congested (mph).
const LAVThreshold = 40

// AccidentRange is how many segments upstream of an accident receive
// alerts.
const AccidentRange = 4

type segKey struct{ xway, dir, seg int64 }

type minuteStat struct {
	vids     map[int64]struct{}
	reports  int64
	sumSpeed int64
}

type locKey struct{ xway, lane, dir, pos int64 }

// accidentState tracks the stopped vehicles at one location.
type accidentState map[int64]bool

// tollLogic is the shared crossing/accident bookkeeping used by both the
// oracle (with its own stats) and the DataCell system (with SQL-computed
// stats). Stats lookup is injected so the two implementations remain
// independent where it matters.
type tollLogic struct {
	lastPos   map[int64][2]int64 // vid → (pos, consecutive count)
	stoppedAt map[int64]locKey   // vid → stop location
	accidents map[locKey]accidentState
	lastSeg   map[int64]segKey // vid → last reported segment
}

func newTollLogic() *tollLogic {
	return &tollLogic{
		lastPos:   map[int64][2]int64{},
		stoppedAt: map[int64]locKey{},
		accidents: map[locKey]accidentState{},
		lastSeg:   map[int64]segKey{},
	}
}

// observe updates stop/accident state with one report and reports whether
// the report is a segment crossing.
func (l *tollLogic) observe(r Record) (crossing bool) {
	// Stop detection.
	lp := l.lastPos[r.VID]
	if lp[0] == r.Pos && lp[1] > 0 {
		lp[1]++
	} else {
		lp = [2]int64{r.Pos, 1}
	}
	l.lastPos[r.VID] = lp
	loc := locKey{r.XWay, r.Lane, r.Dir, r.Pos}
	if lp[1] >= StoppedQuorum {
		if prev, ok := l.stoppedAt[r.VID]; !ok || prev != loc {
			if ok {
				l.unstop(r.VID, prev)
			}
			l.stoppedAt[r.VID] = loc
			acc := l.accidents[loc]
			if acc == nil {
				acc = accidentState{}
				l.accidents[loc] = acc
			}
			acc[r.VID] = true
		}
	} else if prev, ok := l.stoppedAt[r.VID]; ok && (prev.pos != r.Pos || prev.lane != r.Lane) {
		l.unstop(r.VID, prev)
	}

	// Segment crossing.
	sk := segKey{r.XWay, r.Dir, r.Seg}
	last, seen := l.lastSeg[r.VID]
	l.lastSeg[r.VID] = sk
	return !seen || last != sk
}

func (l *tollLogic) unstop(vid int64, loc locKey) {
	delete(l.stoppedAt, vid)
	if acc := l.accidents[loc]; acc != nil {
		delete(acc, vid)
		if len(acc) == 0 {
			delete(l.accidents, loc)
		}
	}
}

// accidentAhead reports whether an active accident affects the vehicle's
// current segment: within AccidentRange segments downstream in its travel
// direction.
func (l *tollLogic) accidentAhead(r Record) bool {
	for loc, acc := range l.accidents {
		if len(acc) < 2 || loc.xway != r.XWay || loc.dir != r.Dir {
			continue
		}
		accSeg := loc.pos / FeetPerSegment
		if accSeg >= SegmentsPerXWay {
			accSeg = SegmentsPerXWay - 1
		}
		if r.Dir == 0 {
			if r.Seg <= accSeg && accSeg-r.Seg <= AccidentRange {
				return true
			}
		} else {
			if r.Seg >= accSeg && r.Seg-accSeg <= AccidentRange {
				return true
			}
		}
	}
	return false
}

// statsLookup returns the previous-minute report count and the LAV for a
// segment; ok=false when no history exists.
type statsLookup func(xway, dir, seg, minute int64) (cnt int64, lav float64, ok bool)

// charge computes the notification for one crossing report.
func (l *tollLogic) charge(r Record, stats statsLookup) Notification {
	n := Notification{VID: r.VID, Time: r.Time}
	if l.accidentAhead(r) {
		n.Accident = true
		return n
	}
	m := r.Time / 60
	if m == 0 {
		return n
	}
	cnt, lav, ok := stats(r.XWay, r.Dir, r.Seg, m)
	if !ok {
		return n
	}
	if lav < LAVThreshold && cnt > TollThreshold {
		over := cnt - TollThreshold
		n.Toll = 2 * over * over
	}
	return n
}

// Reference runs the oracle over the full stream and returns every
// notification in stream order.
func Reference(records []Record) []Notification {
	logic := newTollLogic()
	stats := map[segKey]map[int64]*minuteStat{} // seg → minute → stat

	lookup := func(xway, dir, seg, minute int64) (int64, float64, bool) {
		perMin := stats[segKey{xway, dir, seg}]
		if perMin == nil {
			return 0, 0, false
		}
		prev, okPrev := perMin[minute-1]
		var cnt int64
		if okPrev {
			cnt = int64(len(prev.vids))
		}
		// LAV over up to five preceding minutes that have data.
		var sum float64
		var have int
		for d := int64(1); d <= 5; d++ {
			if s, ok := perMin[minute-d]; ok && s.reports > 0 {
				sum += float64(s.sumSpeed) / float64(s.reports)
				have++
			}
		}
		if have == 0 {
			return cnt, 0, false
		}
		return cnt, sum / float64(have), true
	}

	var out []Notification
	for _, r := range records {
		crossing := logic.observe(r)
		if crossing {
			out = append(out, logic.charge(r, lookup))
		}
		// Update stats AFTER charging: the benchmark charges from history,
		// and the current minute is still open.
		sk := segKey{r.XWay, r.Dir, r.Seg}
		perMin := stats[sk]
		if perMin == nil {
			perMin = map[int64]*minuteStat{}
			stats[sk] = perMin
		}
		m := r.Time / 60
		st := perMin[m]
		if st == nil {
			st = &minuteStat{vids: map[int64]struct{}{}}
			perMin[m] = st
		}
		st.vids[r.VID] = struct{}{}
		st.reports++
		st.sumSpeed += r.Speed
	}
	return out
}
