package service

import (
	"context"
	"sync"
	"testing"
	"time"
)

func recv(t *testing.T, ch <-chan ProgressEvent) (ProgressEvent, bool) {
	t.Helper()
	select {
	case ev, open := <-ch:
		return ev, open
	case <-time.After(5 * time.Second):
		t.Fatal("feed channel neither delivered nor closed")
		return ProgressEvent{}, false
	}
}

// TestFeedNeverBlocksPublish: a subscriber that never reads holds one
// event, the newest, and does not stall the publisher.
func TestFeedNeverBlocksPublish(t *testing.T) {
	var f Feed
	ch, cancel := f.Subscribe()
	defer cancel()
	done := make(chan struct{})
	go func() {
		for b := 0; b < 1000; b++ {
			f.Publish(ProgressEvent{Block: b})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a subscriber that never reads")
	}
	if ev, open := recv(t, ch); !open || ev.Block != 999 {
		t.Fatalf("pending event = %+v (open %v), want block 999", ev, open)
	}
}

// TestFeedCloseKeepsNewest: a slow reader gets the newest event before
// the close, and nothing after it.
func TestFeedCloseKeepsNewest(t *testing.T) {
	var f Feed
	ch, cancel := f.Subscribe()
	defer cancel()
	f.Publish(ProgressEvent{Block: 1})
	f.Publish(ProgressEvent{Block: 2})
	f.Close()
	f.Publish(ProgressEvent{Block: 3}) // after Close: dropped
	if ev, open := recv(t, ch); !open || ev.Block != 2 {
		t.Fatalf("after close got %+v (open %v), want the pending block 2", ev, open)
	}
	if ev, open := recv(t, ch); open {
		t.Fatalf("channel still open after close, delivered %+v", ev)
	}
	f.Close() // idempotent
}

// TestFeedOrder: concurrent readers each see a strictly increasing
// subsequence of what one publisher sent, ending at the last event.
func TestFeedOrder(t *testing.T) {
	var f Feed
	const readers, events = 4, 5000
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		ch, cancel := f.Subscribe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cancel()
			last := -1
			for ev := range ch {
				if ev.Block <= last {
					t.Errorf("reader saw block %d after %d", ev.Block, last)
					return
				}
				last = ev.Block
			}
			if last != events-1 {
				t.Errorf("reader's last block = %d, want %d", last, events-1)
			}
		}()
	}
	for b := 0; b < events; b++ {
		f.Publish(ProgressEvent{Block: b})
	}
	f.Close()
	wg.Wait()
}

// TestFeedCancel: cancel is idempotent and safe after Close, and a
// cancelled subscriber receives nothing further.
func TestFeedCancel(t *testing.T) {
	var f Feed
	ch, cancel := f.Subscribe()
	cancel()
	cancel()
	f.Publish(ProgressEvent{Block: 1})
	select {
	case ev := <-ch:
		t.Fatalf("cancelled subscriber received %+v", ev)
	default:
	}

	_, cancel2 := f.Subscribe()
	f.Close()
	cancel2()
	cancel2()
}

// TestFeedSubscribeAfterClose: a late subscriber gets a closed channel,
// and Drain returns at once.
func TestFeedSubscribeAfterClose(t *testing.T) {
	var f Feed
	f.Publish(ProgressEvent{Block: 1})
	f.Close()
	ch, cancel := f.Subscribe()
	defer cancel()
	if ev, open := recv(t, ch); open {
		t.Fatalf("late subscription delivered %+v, want a closed channel", ev)
	}
	ctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	if err := f.Drain(ctx, func(ev ProgressEvent) {
		t.Errorf("Drain after Close called fn with %+v", ev)
	}); err != nil {
		t.Fatalf("Drain after Close = %v, want nil", err)
	}
}

// TestFeedDrainContext: Drain returns ctx's error when ctx ends before
// the feed closes.
func TestFeedDrainContext(t *testing.T) {
	var f Feed
	ctx, stop := context.WithCancel(context.Background())
	stop()
	if err := f.Drain(ctx, nil); err != context.Canceled {
		t.Fatalf("Drain on a cancelled ctx = %v, want context.Canceled", err)
	}
}
