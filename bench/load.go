package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/serve"
)

const (
	batchSize  = 64
	batchEvery = 16 // one request in 16 on connection A is a batch
	checkEvery = 16 // one reply in 16 is decoded and checked
	burstSize  = replanEvery
)

// opCount is one operation type's tally. A non-2xx, a transport error,
// a timeout or a failed check is a failure.
type opCount struct {
	Sent   int `json:"sent"`
	OK     int `json:"ok"`
	Failed int `json:"failed"`
}

func (o *opCount) add(ok bool) {
	o.Sent++
	if ok {
		o.OK++
	} else {
		o.Failed++
	}
}

// stream names the independent random streams a seed expands into, so
// that the feed's events do not depend on how many lookups were sent.
type stream uint64

const (
	streamReader stream = iota + 1
	streamFeed
	streamProbe
)

func newRNG(seed uint64, s stream) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(s)))
}

// spanSink receives the client half of a traced request; nil when
// tracing is off.
type spanSink interface {
	// next returns the request id to send, 0 when this request is not
	// traced.
	next() uint64
	client(op string, id uint64, start, end time.Time)
}

// reader is connection A: a closed loop of single lookups with one
// batch of 64 in 16, at the daemon's current time step.
type reader struct {
	c     *conn
	rng   *rand.Rand
	users int
	now   *atomic.Int32
	ref   *reference
	exact bool // compare checked replies with the reference engine
	sink  spanSink

	rec, batch       opCount
	recLat, batchLat timed
	checkErr         error // first failed check
	n                int
	path, payload    []byte
}

func (r *reader) fail(err error) {
	if r.checkErr == nil {
		r.checkErr = err
	}
}

func (r *reader) run(until time.Time) {
	for time.Now().Before(until) {
		r.one()
	}
}

func (r *reader) one() {
	r.n++
	t := model.TimeStep(r.now.Load())
	var id uint64
	if r.sink != nil {
		id = r.sink.next()
	}
	if r.n%batchEvery == 0 {
		users := make([]model.UserID, batchSize)
		for i := range users {
			users[i] = model.UserID(r.rng.IntN(r.users))
		}
		r.payload = appendBatchRequest(r.payload[:0], users, t)
		start := time.Now()
		status, err := r.c.do("POST", "/v1/recommend/batch", r.payload, id)
		end := time.Now()
		ok := err == nil && status == http.StatusOK
		if ok && r.n%(batchEvery*checkEvery) == 0 {
			if err := r.checkBatch(users, t); err != nil {
				r.fail(err)
				ok = false
			}
		}
		r.batch.add(ok)
		if ok {
			r.batchLat.add(start, end.Sub(start))
			if id != 0 {
				r.sink.client("batch", id, start, end)
			}
		}
		return
	}
	u := model.UserID(r.rng.IntN(r.users))
	r.path = append(r.path[:0], "/v1/recommend?user="...)
	r.path = strconv.AppendInt(r.path, int64(u), 10)
	r.path = append(r.path, "&t="...)
	r.path = strconv.AppendInt(r.path, int64(t), 10)
	start := time.Now()
	status, err := r.c.do("GET", string(r.path), nil, id)
	end := time.Now()
	ok := err == nil && status == http.StatusOK
	if ok && r.n%checkEvery == 1 {
		if err := r.checkOne(u, t); err != nil {
			r.fail(err)
			ok = false
		}
	}
	r.rec.add(ok)
	if ok {
		r.recLat.add(start, end.Sub(start))
		if id != 0 {
			r.sink.client("recommend", id, start, end)
		}
	}
}

func appendBatchRequest(b []byte, users []model.UserID, t model.TimeStep) []byte {
	b = append(b, `{"users":[`...)
	for i, u := range users {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(u), 10)
	}
	b = append(b, `],"t":`...)
	b = strconv.AppendInt(b, int64(t), 10)
	return append(b, '}')
}

type recommendReply struct {
	User  model.UserID           `json:"user"`
	T     model.TimeStep         `json:"t"`
	Items []serve.Recommendation `json:"items"`
}

type batchReply struct {
	T       model.TimeStep   `json:"t"`
	Results []recommendReply `json:"results"`
}

func (r *reader) checkOne(u model.UserID, t model.TimeStep) error {
	var got recommendReply
	if err := json.Unmarshal(r.c.body.Bytes(), &got); err != nil {
		return fmt.Errorf("recommend user %d: %w", u, err)
	}
	return r.checkReply(got, u, t)
}

func (r *reader) checkBatch(users []model.UserID, t model.TimeStep) error {
	var got batchReply
	if err := json.Unmarshal(r.c.body.Bytes(), &got); err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	if got.T != t || len(got.Results) != len(users) {
		return fmt.Errorf("batch: got t=%d with %d results, want t=%d with %d", got.T, len(got.Results), t, len(users))
	}
	for i, u := range users {
		if err := r.checkReply(got.Results[i], u, t); err != nil {
			return err
		}
	}
	return nil
}

// checkReply verifies one user's reply: always its shape (echoed user
// and step, at most k items, probabilities in [0,1]) and, when the
// workload leaves served answers untouched, item/price/prob against
// the reference engine bit for bit.
func (r *reader) checkReply(got recommendReply, u model.UserID, t model.TimeStep) error {
	if got.User != u || got.T != t {
		return fmt.Errorf("recommend: asked user %d t=%d, reply is for user %d t=%d", u, t, got.User, got.T)
	}
	if len(got.Items) > r.ref.in.K {
		return fmt.Errorf("recommend user %d t=%d: %d items exceed k=%d", u, t, len(got.Items), r.ref.in.K)
	}
	for _, it := range got.Items {
		if !(it.Prob >= 0 && it.Prob <= 1) {
			return fmt.Errorf("recommend user %d t=%d: item %d has prob %v", u, t, it.Item, it.Prob)
		}
	}
	if !r.exact {
		return nil
	}
	want, err := r.ref.eng.Recommend(u, t)
	if err != nil {
		return err
	}
	if len(want) != len(got.Items) {
		return fmt.Errorf("recommend user %d t=%d: %d items, reference has %d", u, t, len(got.Items), len(want))
	}
	for i := range want {
		if want[i] != got.Items[i] {
			return fmt.Errorf("recommend user %d t=%d: item %d is %+v, reference %+v", u, t, i, got.Items[i], want[i])
		}
	}
	return nil
}

// userClass keys the adoptions the daemon must count: it counts a
// user's first adoption from each class.
type userClass struct {
	user  model.UserID
	class model.ClassID
}

// feeder is connection B: the open-loop feed, the clock advances, and
// after the steady phase the probes.
type feeder struct {
	c    *conn
	w    workload
	rng  *rand.Rand
	ref  *reference
	now  *atomic.Int32
	sink spanSink

	adopt, advance opCount
	adoptDue       samples       // steady phase: from due time to the 202
	adoptRT        timed         // steady phase: the round trip alone, from the send
	late           samples       // steady phase: due time → actually sent
	events         []serve.Event // acknowledged, in order
	adopted        map[userClass]bool
	payload        []byte
}

func (f *feeder) event(rng *rand.Rand) serve.Event {
	return serve.Event{
		User:    model.UserID(rng.IntN(f.ref.in.NumUsers)),
		Item:    model.ItemID(rng.IntN(f.ref.in.NumItems())),
		T:       model.TimeStep(f.now.Load()),
		Adopted: rng.Float64() < f.w.pAdopt,
	}
}

// send posts one event and reports whether it was accepted, when the
// request started and when its reply was read.
func (f *feeder) send(ev serve.Event) (ok bool, start, end time.Time) {
	f.payload = append(f.payload[:0], `{"user":`...)
	f.payload = strconv.AppendInt(f.payload, int64(ev.User), 10)
	f.payload = append(f.payload, `,"item":`...)
	f.payload = strconv.AppendInt(f.payload, int64(ev.Item), 10)
	f.payload = append(f.payload, `,"t":`...)
	f.payload = strconv.AppendInt(f.payload, int64(ev.T), 10)
	f.payload = append(f.payload, `,"adopted":`...)
	f.payload = strconv.AppendBool(f.payload, ev.Adopted)
	f.payload = append(f.payload, '}')
	var id uint64
	if f.sink != nil {
		id = f.sink.next()
	}
	start = time.Now()
	status, err := f.c.do("POST", "/v1/adopt", f.payload, id)
	end = time.Now()
	ok = err == nil && status == http.StatusAccepted
	f.adopt.add(ok)
	if !ok {
		return false, start, end
	}
	f.events = append(f.events, ev)
	if ev.Adopted {
		f.adopted[userClass{ev.User, f.ref.in.Class(ev.Item)}] = true
	}
	if id != 0 {
		f.sink.client("adopt", id, start, end)
	}
	return true, start, end
}

// steady sends event i at begin + i/rate, catching up back to back
// after a stall.
func (f *feeder) steady(begin time.Time, length time.Duration) {
	until := begin.Add(length)
	interval := time.Duration(float64(time.Second) / f.w.rate)
	for i := 0; ; i++ {
		due := begin.Add(time.Duration(i) * interval)
		if !due.Before(until) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if ok, start, end := f.send(f.event(f.rng)); ok {
			f.adoptDue = append(f.adoptDue, micros(end.Sub(due)))
			f.adoptRT.add(start, end.Sub(start))
			f.late = append(f.late, micros(start.Sub(due)))
		}
	}
}

// advanceTo posts /v1/advance on a quiet daemon and waits until a
// replan over that clock is counted in /v1/stats: a cluster runs it
// inside the call, a single engine after it. It returns the time from
// the request to that replan; ok is false when the operation failed.
func (f *feeder) advanceTo(step int) (took time.Duration, ok bool, err error) {
	before, err := f.c.stats()
	if err != nil {
		return 0, false, err
	}
	body := []byte(`{"now":` + strconv.Itoa(step) + `}`)
	start := time.Now()
	status, err := f.c.do("POST", "/v1/advance", body, 0)
	ok = err == nil && status == http.StatusOK
	if ok {
		ok, err = f.poll(bootTimeout, func(st daemonStats) bool { return st.Replans > before.Replans })
	}
	f.advance.add(ok)
	if ok {
		f.now.Store(int32(step))
	}
	return time.Since(start), ok, err
}

// poll reads /v1/stats every 2 ms until done accepts it or patience
// runs out.
func (f *feeder) poll(patience time.Duration, done func(daemonStats) bool) (bool, error) {
	for deadline := time.Now().Add(patience); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		st, err := f.c.stats()
		if err != nil {
			return false, err
		}
		if done(st) {
			return true, nil
		}
	}
	return false, nil
}

// freshAdoption draws an adoption of a class the user has not adopted
// from yet, so that the daemon counts every event of a burst.
func (f *feeder) freshAdoption(rng *rand.Rand) serve.Event {
	for {
		ev := f.event(rng)
		if !f.adopted[userClass{ev.User, f.ref.in.Class(ev.Item)}] {
			ev.Adopted = true
			return ev
		}
	}
}

// lagProbe measures adopt → replanned on a quiet daemon, for budget and
// at least minRounds, at most maxRounds times. A round first advances
// to the current step: the daemon replans every burstSize adoptions not
// yet covered by a replan, the steady phase leaves it anywhere in that
// count, and a forced replan covers them all — so the burst of burstSize
// fresh adoptions that follows, back to back, ends on the adoption that
// starts a replan. The lag is the wait from that last ack to the first
// /v1/stats that shows the new plan: replans has increased and — a
// cluster counts a replan when its coordinated solve starts —
// plan_revenue has left its value from before the burst. A round whose
// new plan never shows within patience (the adoptions did not touch the
// plan) is discarded. On a cluster about one burst in a hundred holds a
// flush tick, which starts the barrier early; the quantile over the
// rounds drops that round and the next aligning advance covers what it
// left.
func (f *feeder) lagProbe(rng *rand.Rand, budget, patience time.Duration, minRounds, maxRounds int) (lags []float64, discarded int, err error) {
	begin := time.Now()
	for r := 0; r < maxRounds && (len(lags) < minRounds || time.Since(begin) < budget); r++ {
		if _, ok, err := f.advanceTo(int(f.now.Load())); err != nil || !ok {
			return nil, 0, fmt.Errorf("lag probe round %d: aligning advance failed: %v", r, err)
		}
		before, err := f.c.stats()
		if err != nil {
			return nil, 0, err
		}
		for i := 0; i < burstSize; i++ {
			if ok, _, _ := f.send(f.freshAdoption(rng)); !ok {
				return nil, 0, fmt.Errorf("lag probe: adoption %d of round %d failed", i, r)
			}
		}
		acked := time.Now()
		shown, err := f.poll(patience, func(st daemonStats) bool {
			return st.Replans > before.Replans && st.PlanRevenue != before.PlanRevenue
		})
		if err != nil {
			return nil, 0, err
		}
		if shown {
			lags = append(lags, millis(time.Since(acked)))
		} else {
			discarded++
		}
	}
	return lags, discarded, nil
}
