package serve

import "sync/atomic"

// pending is one predict request parked in a lane: the rows it brought,
// and the result the dispatcher scatters back before closing done.
type pending struct {
	rows    [][]float32
	classes []int32
	err     error
	done    chan struct{}
}

// lane is one model's coalescing pipeline: handlers enqueue pending
// requests into a bounded queue (admission control), and a single
// dispatcher goroutine predicts as soon as it is idle and batches
// whatever queued behind the in-flight call, up to the row cap, into
// one registry Predict. No timer holds a request back; batch size
// follows load through the queue itself.
type lane struct {
	name  string
	queue chan *pending
	stop  chan struct{} // closed by Server.Close
	done  chan struct{} // closed when the dispatcher exits

	requests atomic.Uint64 // predict requests admitted to this lane's handler
	rejected atomic.Uint64 // requests turned away with 429
	errors   atomic.Uint64 // requests completed with an error
	rows     atomic.Uint64 // rows predicted
	batches  atomic.Uint64 // coalesced registry Predict calls
	lat      latencyRing   // request latency sample (enqueue to response)
}

func newLane(name string, maxQueue int) *lane {
	return &lane{
		name:  name,
		queue: make(chan *pending, maxQueue),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// enqueue admits p to the lane, reporting false when the queue is full
// (the admission-control rejection) or the lane is stopping.
func (l *lane) enqueue(p *pending) bool {
	select {
	case l.queue <- p:
		return true
	case <-l.stop:
		return false
	default:
		return false
	}
}

// run is the dispatcher: block for a request, drain what queued behind
// it without blocking, predict, scatter, repeat.
func (l *lane) run(s *Server) {
	defer close(l.done)
	maxRows := s.cfg.MaxBatchRows
	for {
		var first *pending
		select {
		case first = <-l.queue:
		case <-l.stop:
			l.failQueued()
			return
		}
		batch := append(make([]*pending, 0, 8), first)
		rows := len(first.rows)
	drain:
		for rows < maxRows {
			select {
			case p := <-l.queue:
				batch = append(batch, p)
				rows += len(p.rows)
			default:
				break drain
			}
		}
		l.serve(s, batch, rows)
	}
}

// serve concatenates the batch's rows, predicts once through the
// registry (which rides out hot swaps by retrying retired models), and
// scatters answers back to each pending request. The concatenation and
// output slices are per-batch allocations — the network layer trades
// the Batcher's zero-alloc discipline for cross-request amortization.
func (l *lane) serve(s *Server, batch []*pending, rows int) {
	all := make([][]float32, 0, rows)
	for _, p := range batch {
		all = append(all, p.rows...)
	}
	res, err := s.reg.Predict(l.name, all, make([]int32, len(all)))
	l.batches.Add(1)
	l.rows.Add(uint64(len(all)))
	off := 0
	for _, p := range batch {
		if err != nil {
			p.err = err
		} else {
			p.classes = res[off : off+len(p.rows)]
		}
		off += len(p.rows)
		close(p.done)
	}
}

// failQueued drains requests still parked at shutdown, failing each so
// no handler blocks forever on a dispatcher that has exited.
func (l *lane) failQueued() {
	for {
		select {
		case p := <-l.queue:
			p.err = ErrServerClosed
			close(p.done)
		default:
			return
		}
	}
}
