package datacell

import (
	"context"
	"testing"
	"time"

	"repro/internal/vector"
)

func TestLoadSheddingBoundsBacklog(t *testing.T) {
	e, _ := newEngine(t)
	q, err := register(e, "shed", "shed_limit = 100",
		"SELECT * FROM [SELECT * FROM R] AS S")
	if err != nil {
		t.Fatal(err)
	}
	// Flood without draining: the basket must stay bounded.
	var rows [][2]int64
	for i := int64(0); i < 500; i++ {
		rows = append(rows, [2]int64{i, i})
	}
	ingestPairs(t, e, "R", rows)
	if got := q.InputBacklog(); got > 100 {
		t.Errorf("backlog = %d, want <= 100", got)
	}
	if q.Shed() != 400 {
		t.Errorf("shed = %d, want 400", q.Shed())
	}
	// The survivors are the newest tuples.
	e.Drain()
	rels := collect(q)
	if countRows(rels) != 100 {
		t.Fatalf("processed = %d", countRows(rels))
	}
	first := rels[0].Cols[0].Get(0).I
	if first != 400 {
		t.Errorf("oldest survivor = %d, want 400", first)
	}
}

func TestNoSheddingByDefault(t *testing.T) {
	e, _ := newEngine(t)
	q, _ := register(e, "noshed", "", "SELECT * FROM [SELECT * FROM R] AS S")
	var rows [][2]int64
	for i := int64(0); i < 300; i++ {
		rows = append(rows, [2]int64{i, i})
	}
	ingestPairs(t, e, "R", rows)
	if q.InputBacklog() != 300 || q.Shed() != 0 {
		t.Errorf("backlog=%d shed=%d", q.InputBacklog(), q.Shed())
	}
}

func TestPriorityQueryFiresFirst(t *testing.T) {
	e, _ := newEngine(t)
	// Registration order low-then-high; the scheduler must still scan the
	// high-priority factory first.
	_, err := register(e, "low", "polling = true",
		"SELECT * FROM [SELECT * FROM R] AS S")
	if err != nil {
		t.Fatal(err)
	}
	_, err = register(e, "high", "polling = true, priority = 5",
		"SELECT * FROM [SELECT * FROM R] AS S")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tr := range e.Scheduler().Transitions() {
		names = append(names, tr.Name())
	}
	if len(names) != 2 || names[0] != "high" || names[1] != "low" {
		t.Errorf("scheduling order = %v", names)
	}
}

func TestAutoFlushClosesTimeWindows(t *testing.T) {
	// Wall-clock engine: a RANGE window must close via the Start ticker
	// even though no further tuples arrive.
	e := newCore(Config{Workers: 2})
	if _, err := e.Exec(context.Background(), "CREATE BASKET m (v INT)"); err != nil {
		t.Fatal(err)
	}
	winNS := int64(50 * time.Millisecond)
	q, err := register(e, "tw", "",
		"SELECT COUNT(*) AS n FROM [SELECT * FROM m] AS S WINDOW RANGE "+
			itoa(winNS)+" SLIDE "+itoa(winNS))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer e.Stop(context.Background())
	if err := e.Ingest(context.Background(), "m", [][]vector.Value{{vector.NewInt(1)}, {vector.NewInt(2)}}); err != nil {
		t.Fatal(err)
	}
	rctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rel, err := q.Subscription().Recv(rctx)
	if err != nil {
		t.Fatalf("time window never closed without new arrivals: %v", err)
	}
	if rel.Cols[0].Get(0).I != 2 {
		t.Errorf("window count = %v", rel.Row(0))
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
