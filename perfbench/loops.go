package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"shield/internal/lsm"
	"shield/internal/resp"
)

// loopResult is what one timed phase observed from the client side.
// Latencies are kept raw, one sample per successful operation, so
// percentiles are exact.
type loopResult struct {
	elapsed   time.Duration // the timed phase
	put, get  []int64       // ns
	attempted int64
	failed    int64 // errors, refusals, timeouts and wrong values
	wrong     int64 // wrong or missing values: the run is incorrect
	sloOK     int64 // answered correctly within the workload's limit
	inTime    int64 // succeeded and completed before the deadline
	firstErr  error
	written   *keySet // keys whose Put succeeded
}

func (r *loopResult) ok() int64 { return r.attempted - r.failed }

func (r *loopResult) merge(o *loopResult) {
	r.put = append(r.put, o.put...)
	r.get = append(r.get, o.get...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong += o.wrong
	r.sloOK += o.sloOK
	r.inTime += o.inTime
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.written.union(o.written)
}

// keySet is a set of key indexes below a fixed bound, one bit each. It is
// allocated whole when the timed phase starts, so the record of written keys
// holds the same heap however many keys a run writes; a map grew in steps
// as a run wrote more, and peak_heap_mb with it.
type keySet struct {
	bits []uint64
	n    int
}

func newKeySet(bound uint64) *keySet { return &keySet{bits: make([]uint64, (bound+63)/64)} }

func (s *keySet) add(k uint64) {
	if w, b := k/64, uint64(1)<<(k%64); s.bits[w]&b == 0 {
		s.bits[w] |= b
		s.n++
	}
}

func (s *keySet) bound() uint64 { return uint64(len(s.bits)) * 64 }

func (s *keySet) has(k uint64) bool { return s.bits[k/64]&(uint64(1)<<(k%64)) != 0 }

func (s *keySet) len() int { return s.n }

func (s *keySet) union(o *keySet) {
	for i, w := range o.bits {
		s.n += bits.OnesCount64(w &^ s.bits[i])
		s.bits[i] |= w
	}
}

// each calls fn for every key in the set, in increasing order.
func (s *keySet) each(fn func(uint64)) {
	for i, w := range s.bits {
		for ; w != 0; w &= w - 1 {
			fn(uint64(i)*64 + uint64(bits.TrailingZeros64(w)))
		}
	}
}

func (r *loopResult) fail(err error, wrong bool) {
	r.failed++
	if wrong {
		r.wrong++
	}
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// record accounts for one finished operation: a failure, a wrong value,
// or a success with its latency. done is when its reply arrived.
func (r *loopResult) record(w *workload, rec records, o op, got []byte, err error, sent, done, deadline time.Time) {
	key := rec.key(o.key)
	switch {
	case err != nil:
		r.fail(fmt.Errorf("%s: %w", key, err), o.kind == opGet && errors.Is(err, lsm.ErrNotFound))
		return
	case o.kind == opGet && !bytes.Equal(got, rec.value(o.key)):
		r.fail(fmt.Errorf("get %s: %w", key, errWrongValue), true)
		return
	}
	lat := done.Sub(sent)
	if o.kind == opPut {
		r.put = append(r.put, int64(lat))
		r.written.add(o.key)
	} else {
		r.get = append(r.get, int64(lat))
	}
	if lat <= w.sloLimit {
		r.sloOK++
	}
	if done.Before(deadline) {
		r.inTime++
	}
}

// client drives one stream of operations against the system under test
// until the deadline, recording each in r.
type client interface {
	drive(r *loopResult, st *stream, w *workload, rec records, deadline time.Time)
}

// dbClient calls lsm.DB directly, one operation at a time; each call is one
// op span.
type dbClient struct {
	db *lsm.DB
	tr *tracer
}

func (c dbClient) drive(r *loopResult, st *stream, w *workload, rec records, deadline time.Time) {
	for time.Now().Before(deadline) {
		o := st.next()
		key := rec.key(o.key)
		r.attempted++
		var got []byte
		var err error
		t0 := time.Now()
		if o.kind == opPut {
			sp := c.tr.begin(spPut)
			err = c.db.Put(key, rec.value(o.key))
			c.tr.end(sp, 0)
		} else {
			sp := c.tr.begin(spGet)
			got, err = c.db.Get(key)
			c.tr.end(sp, 0)
		}
		r.record(w, rec, o, got, err, t0, time.Now(), deadline)
	}
}

// replyTimeout bounds one RESP round trip; a command not answered in time
// counts as failed.
const replyTimeout = 10 * time.Second

// respClient is one RESP connection that keeps w.window commands in flight:
// it sends the stream's next command each time a reply arrives. Several
// commands in flight let the server fold a connection's consecutive SETs
// into one synced batch, which two one-at-a-time connections never do.
type respClient struct{ c *resp.Client }

func dialRESP(addr string) (respClient, error) {
	c, err := resp.Dial(addr, replyTimeout)
	if err != nil {
		return respClient{}, err
	}
	c.Timeout = replyTimeout
	return respClient{c: c}, nil
}

var (
	cmdSET = []byte("SET")
	cmdGET = []byte("GET")
)

type inflight struct {
	o    op
	sent time.Time
}

func (c respClient) drive(r *loopResult, st *stream, w *workload, rec records, deadline time.Time) {
	var q []inflight
	for {
		for len(q) < w.window && time.Now().Before(deadline) {
			o := st.next()
			k := rec.key(o.key)
			q = append(q, inflight{o: o, sent: time.Now()})
			r.attempted++
			if o.kind == opPut {
				c.c.Send(cmdSET, k, rec.value(o.key)) //nolint:errcheck // buffered; Flush reports
			} else {
				c.c.Send(cmdGET, k) //nolint:errcheck // buffered; Flush reports
			}
		}
		if len(q) == 0 {
			return
		}
		err := c.c.Flush()
		var v resp.Value
		if err == nil {
			v, err = c.c.Recv()
		}
		if err != nil {
			// The connection is broken: nothing in flight will be answered.
			for _, f := range q {
				r.record(w, rec, f.o, nil, err, f.sent, time.Now(), deadline)
			}
			return
		}
		f := q[0]
		q = q[1:]
		got, err := replyValue(f.o.kind, v)
		r.record(w, rec, f.o, got, err, f.sent, time.Now(), deadline)
	}
}

// replyValue checks a reply's shape for its command: +OK for SET, a bulk
// string for GET (a null bulk is a missing key).
func replyValue(kind opKind, v resp.Value) ([]byte, error) {
	switch {
	case v.IsError():
		return nil, fmt.Errorf("server: %s", v.Text())
	case kind == opPut && (v.Kind != resp.KindStatus || v.Text() != "OK"):
		return nil, fmt.Errorf("SET: unexpected reply %q", v.Text())
	case kind == opPut:
		return nil, nil
	case v.Kind == resp.KindBulk && v.Null:
		return nil, lsm.ErrNotFound
	case v.Kind != resp.KindBulk:
		return nil, fmt.Errorf("GET: unexpected reply %q", v.Text())
	}
	return v.Str, nil
}

// closedLoop runs one goroutine per client, each driving its own stream
// until d has passed. Every Get is checked against the generated value.
func closedLoop(clients []client, w *workload, seed int64, rec records, d time.Duration) *loopResult {
	results := make([]*loopResult, len(clients))
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i, cl := range clients {
		r := &loopResult{written: newKeySet(w.keyBound())}
		results[i] = r
		st := newStream(w, seed, i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.drive(r, st, w, rec, deadline)
		}()
	}
	wg.Wait()
	total := &loopResult{elapsed: d, written: newKeySet(w.keyBound())}
	for _, r := range results {
		total.merge(r)
	}
	return total
}
