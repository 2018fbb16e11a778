package service

import (
	"context"
	"sync"
)

// Feed is a latest-value broadcast of progress events, shared by the
// service's jobs and the cluster coordinator's. Every subscriber owns a
// one-slot channel; Publish overwrites an unread event instead of
// queueing behind it, so it never blocks and a slow reader skips
// straight to the newest snapshot. Close leaves that pending event
// readable and then closes every channel. The zero value is ready.
type Feed struct {
	mu     sync.Mutex
	subs   map[chan ProgressEvent]struct{}
	closed bool
}

// Subscribe returns a channel that receives the feed's events from now
// on and a cancel function. The channel closes when the feed does —
// at once when it already has. Cancel is idempotent and safe after
// Close; it leaves the channel open.
func (f *Feed) Subscribe() (<-chan ProgressEvent, func()) {
	ch := make(chan ProgressEvent, 1)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		close(ch)
		return ch, func() {}
	}
	if f.subs == nil {
		f.subs = make(map[chan ProgressEvent]struct{})
	}
	f.subs[ch] = struct{}{}
	return ch, func() {
		f.mu.Lock()
		delete(f.subs, ch)
		f.mu.Unlock()
	}
}

// Publish hands ev to every subscriber, replacing any event it has not
// read yet. A no-op after Close.
func (f *Feed) Publish(ev ProgressEvent) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for ch := range f.subs {
		select {
		case <-ch: // drop the stale, unread event
		default:
		}
		// Only Publish sends, under f.mu, so the slot is free now.
		ch <- ev
	}
}

// Close ends the feed: every channel closes after its pending event,
// and later subscribers get a closed channel. Idempotent.
func (f *Feed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for ch := range f.subs {
		close(ch)
	}
	f.subs = nil
	f.closed = true
}

// Drain subscribes to the feed and calls fn (when non-nil) for every
// event the reader sees, until the feed closes (nil) or ctx is done
// (ctx.Err()). It is the one subscribe-and-drain loop behind every
// Stream: service, HTTP and cluster.
func (f *Feed) Drain(ctx context.Context, fn func(ProgressEvent)) error {
	ch, cancel := f.Subscribe()
	defer cancel()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case ev, open := <-ch:
			if !open {
				return nil
			}
			if fn != nil {
				fn(ev)
			}
		}
	}
}
