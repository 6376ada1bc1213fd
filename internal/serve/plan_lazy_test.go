package serve

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/model"
)

// TestLazyStrategyUnderReplans hammers Engine.Strategy() and Stats()
// from several goroutines while 50 incremental replans swap the plan
// underneath them. Every plan a reader catches must hand every caller
// the same *model.Strategy (the map is built at most once per plan), and
// that strategy must hold exactly the triples of the solver plan it was
// materialized from. Run under -race: the readers and the replan
// goroutine share nothing but the plan pointer and its sync.Once.
func TestLazyStrategyUnderReplans(t *testing.T) {
	const replans = 50
	in := testInstance(t, 60, 8, 4, 2, 97)
	e := newTestEngine(t, in, Config{Incremental: true, WarmStart: true, Shards: 2})

	var (
		mu   sync.Mutex
		seen = map[*plan]*model.Strategy{}
		stop = make(chan struct{})
		wg   sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := e.plan.Load()
				s := p.strategy()
				if st := e.Stats(); st.PlannedTriples < 0 || e.Strategy() == nil {
					t.Errorf("stats/strategy unavailable mid-replan: %+v", st)
				}
				mu.Lock()
				if first, ok := seen[p]; !ok {
					seen[p] = s
				} else if first != s {
					t.Errorf("plan revision %d handed out two strategies", p.revision)
				}
				mu.Unlock()
			}
		}()
	}
	for r := 0; r < replans; r++ {
		// A fresh (user, class) adoption each round: Flush must cover it
		// with a replan.
		ev := Event{User: model.UserID(r), Item: model.ItemID(r % in.NumItems()), T: 1, Adopted: true}
		if err := e.Feed(ev); err != nil {
			t.Fatal(err)
		}
		e.Flush()
	}
	close(stop)
	wg.Wait()

	if got := e.Stats().Replans; got != replans {
		t.Fatalf("%d replans ran, want %d", got, replans)
	}
	for p, s := range seen {
		if want := p.flat.Strategy(); !reflect.DeepEqual(s.Triples(), want.Triples()) || s.Len() != p.triples {
			t.Errorf("plan revision %d: lazy strategy holds %d triples, its solver plan %d", p.revision, s.Len(), want.Len())
		}
	}
	if len(seen) == 0 {
		t.Fatal("no reader ever caught a plan")
	}
	if s := e.Strategy(); s != e.Strategy() {
		t.Error("Engine.Strategy rebuilt the live plan's map on a second call")
	}
}
