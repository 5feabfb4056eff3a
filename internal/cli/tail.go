package cli

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"dgc/internal/admin"
)

// cmdTail streams live journal events from every node in the fleet, merged
// onto stdout as they arrive. By default it baselines at "now" and follows;
// -all replays each node's retained history first.
func cmdTail(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs, ef := newFlagSet("tail", stderr)
	kinds := fs.String("kind", "", "comma-separated event kinds to keep (default all)")
	traceID := fs.String("trace", "", "keep only events of one causal trace id (hex)")
	all := fs.Bool("all", false, "replay retained history before following")
	dur := fs.Duration("for", 0, "stop after this long (0 = until interrupted)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	f, err := newFleet(ef)
	if err != nil {
		return fail(stderr, err)
	}
	if err := f.refresh(); err != nil {
		return fail(stderr, err)
	}

	if *dur > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *dur)
		defer cancel()
	}

	var mu sync.Mutex // serializes output lines across node streams
	print := func(e admin.EventJSON) {
		mu.Lock()
		defer mu.Unlock()
		if e.Seq == 0 { // truncation or eviction marker
			fmt.Fprintf(stderr, "dgcctl: %s\n", e.Detail)
			return
		}
		tid := ""
		if e.Trace != "" {
			tid = " [" + e.Trace + "]"
		}
		fmt.Fprintf(stdout, "%-12s #%-6d %-15s%s %s\n", e.Node, e.Seq, e.Kind, tid, e.Detail)
	}

	var wg sync.WaitGroup
	for _, id := range f.nodeIDs() {
		c := f.clients[id]
		wg.Add(1)
		go func() {
			defer wg.Done()
			since := uint64(0)
			if !*all {
				head, err := c.JournalHead(ctx, "")
				if err != nil {
					mu.Lock()
					fmt.Fprintf(stderr, "dgcctl: %s: %v\n", id, err)
					mu.Unlock()
					return
				}
				since = head
			}
			// The server caps each follow stream; reconnect from the last
			// seen sequence until the command's own deadline.
			for ctx.Err() == nil {
				opts := EventStreamOptions{
					Since: since, Kinds: *kinds, TraceID: *traceID,
					Follow: true, Timeout: time.Minute,
				}
				_, err := c.StreamEvents(ctx, opts, func(e admin.EventJSON) bool {
					if e.Seq > since {
						since = e.Seq
					}
					print(e)
					return true
				})
				if err != nil && ctx.Err() == nil {
					mu.Lock()
					fmt.Fprintf(stderr, "dgcctl: %s: %v\n", id, err)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return 0
}
