package serve

import "container/heap"

// jobQueue is the pending-job priority queue, with one pick policy for
// every holder, local slot or worker node: higher Priority first; within
// a level the largest estimated remaining cost first (LPT scheduling:
// handing the biggest tasks out earliest minimizes makespan — the
// graph-partitioning QMD literature's "partition by estimated cost, not
// round-robin" — and it holds for two local slots as much as for two
// nodes); among equal costs, admission order, so a queue of like jobs
// is FIFO.
//
// It holds *job entries owned by the Manager and is always accessed
// under its lock.
type jobQueue struct {
	items []*job
}

func (q *jobQueue) Len() int { return len(q.items) }

func (q *jobQueue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.state.Priority != b.state.Priority {
		return a.state.Priority > b.state.Priority
	}
	ca, cb := a.spec.EstimatedCost(a.state.StepsDone), b.spec.EstimatedCost(b.state.StepsDone)
	if ca != cb {
		return ca > cb
	}
	return a.seq < b.seq
}

func (q *jobQueue) Swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].queueIdx = i
	q.items[j].queueIdx = j
}

func (q *jobQueue) Push(x any) {
	j := x.(*job)
	j.queueIdx = len(q.items)
	q.items = append(q.items, j)
}

func (q *jobQueue) Pop() any {
	old := q.items
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.queueIdx = -1
	q.items = old[:n-1]
	return j
}

// push enqueues a job.
func (q *jobQueue) push(j *job) { heap.Push(q, j) }

// pop dequeues the highest-priority job, or nil when empty.
func (q *jobQueue) pop() *job {
	if q.Len() == 0 {
		return nil
	}
	return heap.Pop(q).(*job)
}

// remove drops a specific job from the middle of the queue (used by
// cancellation of queued jobs). Reports whether the job was queued.
func (q *jobQueue) remove(j *job) bool {
	if j.queueIdx < 0 || j.queueIdx >= q.Len() || q.items[j.queueIdx] != j {
		return false
	}
	heap.Remove(q, j.queueIdx)
	return true
}
