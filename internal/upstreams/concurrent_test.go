package upstreams

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
)

// blockUntil returns a script that answers only after release is
// closed, for staging real races in concurrent-mode tests.
func blockUntil(release <-chan struct{}, cost time.Duration) scriptFn {
	return func(q *dnswire.Message, _ bool) (*dnswire.Message, time.Duration, error) {
		<-release
		return answer(q), cost, nil
	}
}

// manualAfter hands out timer channels the test fires explicitly.
type manualAfter struct {
	ch chan time.Time
}

func newManualAfter() *manualAfter { return &manualAfter{ch: make(chan time.Time, 1)} }

func (m *manualAfter) After(time.Duration) <-chan time.Time { return m.ch }

func (m *manualAfter) fire() { m.ch <- time.Time{} }

func TestConcurrentHedgeWins(t *testing.T) {
	tr := newFakeTransport()
	clk := newFakeClock()
	after := newManualAfter()
	p, err := New(Config{
		Upstreams:  []Upstream{{Addr: upA}, {Addr: upB}},
		Transport:  tr,
		Now:        clk.Now,
		Hedge:      true,
		Concurrent: true,
		After:      after.After,
	})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	tr.set(upA, blockUntil(release, 300*time.Millisecond))
	tr.set(upB, answers(10*time.Millisecond))

	done := make(chan struct{})
	var resp *dnswire.Message
	go func() { // joined via the done channel
		defer close(done)
		resp, _, err = p.Exchange(cli, query(1))
	}()
	after.fire() // hedge timer expires: B races and wins
	<-done
	if err != nil || len(resp.Answers) != 1 {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	close(release) // primary straggler completes, settled Lost
	p.Wait()
	c := checkCounters(t, p)
	if c.Issued != 2 || c.Won != 1 || c.Lost != 1 || c.Hedges != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestHedgedAttemptsOwnTheirQuery holds a hedged race's primary until
// after Exchange has returned on the hedge's answer and the caller has
// rewritten its query in place, as a resolver refills the query it
// built in pooled memory for its next hop: the question name, a view of
// the query's arena (SetQuestionName), and the ECS bytes. The
// straggler, released only then, must still send the question and ECS
// bytes it was started with: the race's attempts read a query of their
// own.
func TestHedgedAttemptsOwnTheirQuery(t *testing.T) {
	tr := newFakeTransport()
	after := newManualAfter()
	p, err := New(Config{
		Upstreams:  []Upstream{{Addr: upA}, {Addr: upB}},
		Transport:  tr,
		Now:        newFakeClock().Now,
		Hedge:      true,
		Concurrent: true,
		After:      after.After,
	})
	if err != nil {
		t.Fatal(err)
	}
	ecs := []byte{0, 1, 24, 0, 198, 51, 100}
	q := query(1)
	question := q.Question() // its name a string of its own
	q.SetQuestionName([]byte(question.Name))
	q.EDNS = dnswire.NewEDNS()
	q.EDNS.SetOption(dnswire.Option{Code: dnswire.OptionCodeECS, Data: append([]byte(nil), ecs...)})

	release := make(chan struct{})
	type sent struct {
		question dnswire.Question
		ecs      []byte
	}
	straggler := make(chan sent, 1)
	tr.set(upA, func(q *dnswire.Message, _ bool) (*dnswire.Message, time.Duration, error) {
		<-release
		opt, _ := q.EDNS.Option(dnswire.OptionCodeECS)
		straggler <- sent{q.Question(), append([]byte(nil), opt.Data...)}
		return answer(q), time.Second, nil
	})
	tr.set(upB, answers(10*time.Millisecond))

	done := make(chan struct{})
	go func() { // joined via the done channel
		defer close(done)
		_, _, err = p.Exchange(cli, q)
	}()
	after.fire() // the hedge races the held primary and wins
	<-done
	if err != nil {
		t.Fatal(err)
	}
	q.SetQuestionName([]byte("y.example.")) // as long as the first: a view of it reads this
	opt, _ := q.EDNS.Option(dnswire.OptionCodeECS)
	copy(opt.Data, []byte{0, 1, 24, 0, 203, 0, 113})
	close(release)
	got := <-straggler
	p.Wait()
	if got.question != question || !bytes.Equal(got.ecs, ecs) {
		t.Fatalf("the straggler sent %v with ECS %x, want %v with %x: it read the caller's query after Exchange returned",
			got.question, got.ecs, question, ecs)
	}
}

func TestConcurrentStragglerErrorCancelled(t *testing.T) {
	tr := newFakeTransport()
	clk := newFakeClock()
	after := newManualAfter()
	p, err := New(Config{
		Upstreams:  []Upstream{{Addr: upA}, {Addr: upB}},
		Transport:  tr,
		Now:        clk.Now,
		Hedge:      true,
		Concurrent: true,
		After:      after.After,
	})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	tr.set(upA, func(q *dnswire.Message, _ bool) (*dnswire.Message, time.Duration, error) {
		<-release
		return nil, time.Second, errors.New("late timeout")
	})
	tr.set(upB, answers(10*time.Millisecond))

	done := make(chan struct{})
	go func() { // joined via the done channel
		defer close(done)
		_, _, err = p.Exchange(cli, query(1))
	}()
	after.fire()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	p.Wait()
	c := checkCounters(t, p)
	if c.Won != 1 || c.Cancelled != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestConcurrentFailover(t *testing.T) {
	tr := newFakeTransport()
	clk := newFakeClock()
	p, err := New(Config{
		Upstreams:  []Upstream{{Addr: upA}, {Addr: upB}, {Addr: upC}},
		Transport:  tr,
		Now:        clk.Now,
		Concurrent: true,
		After:      newManualAfter().After,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.set(upA, fails(time.Millisecond))
	tr.set(upB, fails(time.Millisecond))
	tr.set(upC, answers(10*time.Millisecond))
	resp, _, xerr := p.Exchange(cli, query(1))
	if xerr != nil || len(resp.Answers) != 1 {
		t.Fatalf("resp=%v err=%v", resp, xerr)
	}
	p.Wait()
	c := checkCounters(t, p)
	if c.Issued != 3 || c.Won != 1 || c.Failed != 2 || c.Failovers != 2 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestConcurrentAllFail(t *testing.T) {
	tr := newFakeTransport()
	clk := newFakeClock()
	p, err := New(Config{
		Upstreams:  []Upstream{{Addr: upA}, {Addr: upB}},
		Transport:  tr,
		Now:        clk.Now,
		Concurrent: true,
		After:      newManualAfter().After,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.set(upA, fails(time.Millisecond))
	tr.set(upB, fails(time.Millisecond))
	if _, _, err := p.Exchange(cli, query(1)); err == nil {
		t.Fatal("all-fail race answered")
	}
	p.Wait()
	c := checkCounters(t, p)
	if c.Issued != 2 || c.Failed != 2 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestConcurrentParallelQueries(t *testing.T) {
	tr := newFakeTransport()
	clk := newFakeClock()
	p, err := New(Config{
		Upstreams:  []Upstream{{Addr: upA}, {Addr: upB}, {Addr: upC}},
		Transport:  tr,
		Now:        clk.Now,
		Concurrent: true,
		After:      newManualAfter().After,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []netip.Addr{upA, upB, upC} {
		tr.set(u, answers(time.Millisecond))
	}
	const workers = 16
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func(id uint16) { // joined via the errs channel
			_, _, err := p.Exchange(cli, query(id))
			errs <- err
		}(uint16(i))
	}
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	p.Wait()
	c := checkCounters(t, p)
	if c.Won != workers {
		t.Fatalf("counters = %+v", c)
	}
}
