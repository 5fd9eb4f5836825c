package memctrl

import "repro/internal/dram"

// request is one queued demand access. Requests live on three intrusive
// doubly-linked lists at once:
//
//   - the queue list (qnext/qprev): every request of the read or write
//     queue in arrival order — the order FR-FCFS serves them in;
//   - the bank list (bnext/bprev): the queue's requests targeting one
//     bank, in arrival order;
//   - the hit chain (hnext/hprev): the bank-list subset targeting the
//     bank's currently open row, in arrival order — the incrementally
//     maintained first-ready (row hit) candidates.
//
// seq is the global arrival counter; comparing seq across banks
// reproduces the flat queue order without walking it.
type request struct {
	addr   dram.Address
	req    int // requester (source/thread) ID; RequesterNone when unknown
	write  bool
	onDone func()
	queued int64

	seq          uint64
	qnext, qprev *request
	bnext, bprev *request
	hnext, hprev *request
	inHit        bool
}

// bankBucket indexes one bank's slice of a queue: its FIFO of requests
// and the chain of requests hitting the bank's open row.
type bankBucket struct {
	head, tail *request
	n          int

	hitHead, hitTail *request
	hitN             int
}

// reqQueue is a demand queue (read or write) as a linked arrival-order
// list plus per-bank buckets. The global list is authoritative for
// scheduling order; the buckets make per-cycle candidate selection
// O(banks) instead of O(queue).
type reqQueue struct {
	head, tail *request
	n          int
	seq        uint64 // next arrival stamp
	banks      []bankBucket
	hitMask    []uint64 // bit per bank with a non-empty hit chain
}

func (q *reqQueue) init(banks int) {
	q.banks = make([]bankBucket, banks)
	q.hitMask = make([]uint64, (banks+63)/64)
}

// push appends r (arrival order) and indexes it under its bank; openRow
// is the bank's currently open row so the hit chain stays complete.
//
//rhlint:hotpath
func (q *reqQueue) push(r *request, openRow int) {
	r.seq = q.seq
	q.seq++
	if q.tail == nil {
		q.head, q.tail = r, r
	} else {
		r.qprev = q.tail
		q.tail.qnext = r
		q.tail = r
	}
	q.n++
	b := &q.banks[r.addr.Bank]
	if b.tail == nil {
		b.head, b.tail = r, r
	} else {
		r.bprev = b.tail
		b.tail.bnext = r
		b.tail = r
	}
	b.n++
	if openRow == r.addr.Row {
		b.hitAppend(r)
		q.hitMask[r.addr.Bank>>6] |= 1 << (uint(r.addr.Bank) & 63)
	}
}

// remove unlinks r from the queue, its bank bucket, and the hit chain.
//
//rhlint:hotpath
func (q *reqQueue) remove(r *request) {
	if r.qprev != nil {
		r.qprev.qnext = r.qnext
	} else {
		q.head = r.qnext
	}
	if r.qnext != nil {
		r.qnext.qprev = r.qprev
	} else {
		q.tail = r.qprev
	}
	r.qnext, r.qprev = nil, nil
	q.n--

	b := &q.banks[r.addr.Bank]
	if r.bprev != nil {
		r.bprev.bnext = r.bnext
	} else {
		b.head = r.bnext
	}
	if r.bnext != nil {
		r.bnext.bprev = r.bprev
	} else {
		b.tail = r.bprev
	}
	r.bnext, r.bprev = nil, nil
	b.n--

	if r.inHit {
		b.hitRemove(r)
		if b.hitN == 0 {
			q.hitMask[r.addr.Bank>>6] &^= 1 << (uint(r.addr.Bank) & 63)
		}
	}
}

// bankRowChanged rebuilds the bank's hit chain after an ACT or PRE
// changed its open row (-1 when precharged). Row transitions are
// tRC-paced, so the O(bank depth) walk is off the per-cycle path.
//
//rhlint:hotpath
func (q *reqQueue) bankRowChanged(bank, openRow int) {
	b := &q.banks[bank]
	for r := b.hitHead; r != nil; {
		next := r.hnext
		r.hnext, r.hprev = nil, nil
		r.inHit = false
		r = next
	}
	b.hitHead, b.hitTail = nil, nil
	b.hitN = 0
	q.hitMask[bank>>6] &^= 1 << (uint(bank) & 63)
	if openRow < 0 {
		return
	}
	for r := b.head; r != nil; r = r.bnext {
		if r.addr.Row == openRow {
			b.hitAppend(r)
		}
	}
	if b.hitN > 0 {
		q.hitMask[bank>>6] |= 1 << (uint(bank) & 63)
	}
}

//rhlint:hotpath
func (b *bankBucket) hitAppend(r *request) {
	if b.hitTail == nil {
		b.hitHead, b.hitTail = r, r
	} else {
		r.hprev = b.hitTail
		b.hitTail.hnext = r
		b.hitTail = r
	}
	r.inHit = true
	b.hitN++
}

//rhlint:hotpath
func (b *bankBucket) hitRemove(r *request) {
	if r.hprev != nil {
		r.hprev.hnext = r.hnext
	} else {
		b.hitHead = r.hnext
	}
	if r.hnext != nil {
		r.hnext.hprev = r.hprev
	} else {
		b.hitTail = r.hprev
	}
	r.hnext, r.hprev = nil, nil
	r.inHit = false
	b.hitN--
}
