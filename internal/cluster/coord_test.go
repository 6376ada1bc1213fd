package cluster

import (
	"testing"

	"repro/internal/model"
	"repro/internal/serve"
)

// hostileInstance has one item with capacity 1 and many users wanting
// it, so adoptions on two shards in one barrier window oversubscribe it.
func hostileInstance() *model.Instance {
	in := model.NewInstance(4, 1, 2, 1)
	in.SetItem(0, 0, 0.5, 1)
	for t := 1; t <= 2; t++ {
		in.SetPrice(0, model.TimeStep(t), 10)
	}
	for u := 0; u < 4; u++ {
		in.AddCandidate(model.UserID(u), 0, 1, 0.5)
		in.AddCandidate(model.UserID(u), 0, 2, 0.5)
	}
	in.FinishCandidates()
	return in
}

// TestReconcileAlgebra pins the clipped-drawdown identity the
// reservation protocol rests on: shards drawing their optimistic views
// down concurrently reconcile to exactly the remainder a sequential
// application of the same adoptions reaches, including oversubscribed
// rounds that clip at zero.
func TestReconcileAlgebra(t *testing.T) {
	in := hostileInstance() // item 0, capacity 1
	cl, err := New(in, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Both shards adopt item 0 in the same barrier window — combined
	// drawdown 2 against remaining stock 1.
	for u := 0; u < 2; u++ {
		if err := cl.Feed(serve.Event{User: model.UserID(u), Item: 0, T: 1, Adopted: true}); err != nil {
			t.Fatal(err)
		}
	}
	cl.Flush()
	n, err := cl.Stock(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("oversubscribed stock reconciled to %d, want 0", n)
	}
	st := cl.CoordinatorStats()
	if st.StockRemaining != 0 {
		t.Errorf("stock_remaining gauge %d, want 0", st.StockRemaining)
	}
	if st.OutstandingReservations != 0 {
		t.Errorf("outstanding reservations %d after barrier, want 0", st.OutstandingReservations)
	}
	if st.ReconcileRounds == 0 {
		t.Error("no reconcile rounds recorded")
	}
}
