package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/recoverylog"
)

// ---- Provisioner.Resync error path ----

// TestResyncFailureDoesNotSkipEntries: a resync that fails mid-stream
// records only the contiguous applied prefix as the replica's position, so
// a resumed resync applies every entry the failed one did not.
func TestResyncFailureDoesNotSkipEntries(t *testing.T) {
	log := recoverylog.New()
	prov := NewProvisioner(log)
	const rows = 20
	sqls := []string{"CREATE DATABASE shop", "USE shop", "CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT)"}
	for i := 1; i <= rows; i++ {
		sqls = append(sqls, fmt.Sprintf("INSERT INTO items (id, name) VALUES (%d, 'n%d')", i, i))
	}
	for _, ev := range committedEvents(t, sqls...) {
		prov.RecordEvent(ev)
	}

	rep := NewReplica(ReplicaConfig{Name: "fresh"})
	// Fail transiently at one mid-stream entry (a replica hiccup, not a
	// poisoned event: the retry must succeed).
	failAt := uint64(12)
	injected := errors.New("transient apply failure")
	tripped := false
	opts := ResyncOptions{BeforeApply: func(e engine.Event) error {
		if e.Seq == failAt && !tripped {
			tripped = true
			return injected
		}
		return nil
	}}

	_, err := prov.Resync(rep, 0, opts, time.Second)
	if !errors.Is(err, injected) {
		t.Fatalf("expected injected failure, got %v", err)
	}
	if got := rep.AppliedSeq(); got != failAt-1 {
		t.Fatalf("failed resync recorded applied=%d, want %d (the contiguous applied prefix)", got, failAt-1)
	}

	// Resume from the recorded position: recording the head instead would
	// skip entries 12..22 and leave the table short.
	res, err := prov.Resync(rep, rep.AppliedSeq(), opts, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CaughtUp {
		t.Fatalf("resumed resync did not catch up: %+v", res)
	}
	n, err := rep.Engine().RowCount("shop", "items")
	if err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("resumed resync left %d rows, want %d (entries skipped)", n, rows)
	}
}

// ---- LocalOrderer Submit/Close race and wedged subscribers ----

// TestLocalOrdererSubmitCloseRace: Submit used to copy the subscriber list
// under the lock but send after releasing it, so a concurrent Close could
// close those channels mid-send and panic Submit with "send on closed
// channel". Run under -race this is also the data-race proof.
func TestLocalOrdererSubmitCloseRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		ord := NewLocalOrderer()
		var consumers sync.WaitGroup
		for i := 0; i < 3; i++ {
			ch := ord.Subscribe()
			consumers.Add(1)
			go func(ch <-chan Ordered) {
				defer consumers.Done()
				for range ch {
				}
			}(ch)
		}
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					if err := ord.Submit(i); err != nil {
						return // closed: expected
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ord.Close()
		}()
		wg.Wait()
		ord.Close() // idempotent
		consumers.Wait()
	}
}

// TestLocalOrdererWedgedSubscriberDoesNotStallProducers: one subscriber
// that never drains used to wedge every producer once its 4096-entry buffer
// filled. Now the wedged subscription is dropped (channel closed) and the
// sequencer keeps going.
func TestLocalOrdererWedgedSubscriberDoesNotStallProducers(t *testing.T) {
	ord := NewLocalOrderer()
	defer ord.Close()
	wedged := ord.Subscribe() // never read until dropped

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < localOrdererBuf+100; i++ {
			if err := ord.Submit(i); err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("producers stalled behind a wedged subscriber")
	}
	if got := ord.DroppedSubscribers(); got != 1 {
		t.Fatalf("DroppedSubscribers = %d, want 1", got)
	}
	// The wedged subscriber's buffered backlog stays readable, then the
	// closed channel tells its consumer the subscription ended.
	n := 0
	for range wedged {
		n++
	}
	if n != localOrdererBuf {
		t.Fatalf("wedged subscriber drained %d buffered events, want %d", n, localOrdererBuf)
	}
}

// TestLocalOrdererKeepsPacedSubscriber: a subscriber that drains is never
// dropped, no matter how many events flow. Production is paced by
// consumption (ack per event) so the test makes no scheduling assumptions.
func TestLocalOrdererKeepsPacedSubscriber(t *testing.T) {
	ord := NewLocalOrderer()
	defer ord.Close()
	ch := ord.Subscribe()
	for i := 0; i < localOrdererBuf+100; i++ {
		if err := ord.Submit(i); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if _, ok := <-ch; !ok {
			t.Fatal("paced subscriber was dropped")
		}
	}
	if got := ord.DroppedSubscribers(); got != 0 {
		t.Fatalf("DroppedSubscribers = %d, want 0", got)
	}
}

// ---- Monitor.Stop double close ----

// TestMonitorConcurrentStop: two concurrent Stops could both take the
// default branch of the old select-then-close and double-close m.stop.
func TestMonitorConcurrentStop(t *testing.T) {
	ms, _ := newMSCluster(t, 1, MasterSlaveConfig{})
	for round := 0; round < 20; round++ {
		mon := NewMonitor(ms, time.Millisecond)
		mon.Start()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mon.Stop()
			}()
		}
		wg.Wait()
	}
}
