package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"

	"ninf/internal/protocol"
)

// Multiplexed serving (protocol version 2). A lockstep connection
// reads a frame, fully services it, writes the reply, and only then
// reads the next — so one long dgefa call head-of-line-blocks every
// ping, list, and small call pipelined behind it, and N concurrent
// calls cost N connections. After a client negotiates the upgrade
// (MsgHello), the connection switches to serveMux: a read loop hands
// each sequenced request to the same verb handler the lockstep framer
// uses (handle, verbs.go), concurrently and bounded by a semaphore, and
// a single writer goroutine serializes (and coalesces) the replies.
//
// At feature level 3 (protocol.MuxVersionBulk) large requests arrive
// as chunked bulk frames — the read loop reassembles them straight off
// the buffered reader — and large replies stream back the same way,
// the writer interleaving one bounded chunk per turn between flushes of
// complete small replies, so a LINPACK-sized result no longer
// head-of-line-blocks pipelined pings behind it.
//
// Shared-writer invariant: dispatch goroutines must NEVER write to the
// connection themselves — interleaved writes would corrupt the frame
// stream for every in-flight Seq. Every reply travels through the
// replies channel to muxWriteLoop, the connection's one serialization
// point. The ninflint sharedwrite pass enforces this shape.

// DefaultMuxConcurrency bounds how many requests one multiplexed
// connection services concurrently when Config.MuxConcurrency is 0.
// The bound is per connection: it caps dispatch goroutines (and
// admitted-but-queued jobs) a single pipelining client can hold open,
// while the PE pool still governs actual execution parallelism.
const DefaultMuxConcurrency = 64

// muxReply is one sequenced reply awaiting the serialized writer.
type muxReply struct {
	seq uint32
	reply
}

// hello answers a MsgHello, the negotiation a connection opens with in
// lockstep framing. With multiplexing enabled it accepts the highest
// common version, and a nonzero second return tells the lockstep framer
// to hand the connection to serveMux at that feature level once the
// reply is written; a server configured lockstep-only answers like a
// pre-mux server (MsgError), which the client takes as "legacy peer,
// stay lockstep".
func (s *Server) hello(payload []byte) (reply, int) {
	req, err := protocol.DecodeHelloRequest(payload)
	if err != nil {
		return errReply(protocol.CodeBadArguments, err.Error()), 0
	}
	if s.cfg.DisableMux || req.MaxVersion < protocol.MuxVersion {
		return errReply(protocol.CodeInternal, fmt.Sprintf("unexpected frame %v", protocol.MsgHello)), 0
	}
	version := req.MaxVersion
	if version > protocol.MuxVersionCache {
		version = protocol.MuxVersionCache
	}
	rep := protocol.HelloReply{Version: version, Epoch: s.epoch.Load()}
	if version >= protocol.MuxVersionCache && s.cache != nil {
		// Digest references are only legal once the server says its
		// cache is live; without the flag a level-4 connection is
		// bit-identical to level 3.
		rep.Flags |= protocol.HelloFlagArgCache
	}
	return reply{t: protocol.MsgHelloOK, fb: protocol.BufferFor(rep.Encode())}, int(version)
}

// muxConcurrency resolves the per-connection dispatch bound.
func (s *Server) muxConcurrency() int {
	if s.cfg.MuxConcurrency > 0 {
		return s.cfg.MuxConcurrency
	}
	return DefaultMuxConcurrency
}

// bulkThreshold resolves the reply-chunking threshold; 0 disables.
func (s *Server) bulkThreshold() int {
	switch {
	case s.cfg.BulkThreshold < 0:
		return 0
	case s.cfg.BulkThreshold == 0:
		return protocol.DefaultBulkThreshold
	default:
		return s.cfg.BulkThreshold
	}
}

// serveMux services one upgraded connection until EOF or error. The
// read loop acquires a semaphore slot per request — backpressure on a
// client pipelining more than MuxConcurrency calls — and hands the
// frame to a dispatch goroutine; replies funnel through muxWriteLoop.
// Chunked bulk requests reassemble inline in the read loop (chunk data
// is read straight into the per-sequence buffer) and dispatch once
// complete, exactly like a monolithic frame plus segment metadata.
//
//ninflint:hotpath
func (s *Server) serveMux(conn net.Conn, client string, version int) {
	cp := caps{
		bulkOK:  version >= protocol.MuxVersionBulk,
		cacheOK: version >= protocol.MuxVersionCache && s.cache != nil,
	}
	replies := make(chan muxReply, s.muxConcurrency())
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	sem := make(chan struct{}, s.muxConcurrency())
	outstanding := func() int { return len(sem) }
	go func() {
		defer writerWG.Done()
		s.muxWriteLoop(conn, replies, outstanding)
	}()

	var wg sync.WaitGroup
	dispatch := func(typ protocol.MsgType, seq uint32, fb *protocol.Buffer, bulk *protocol.BulkInfo) {
		sem <- struct{}{}
		// Every accepted frame owes the writer one reply; the pending
		// count pairs with muxWriteLoop's replyDone so Drain can wait
		// for the wire to flush.
		s.replyPending()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			replies <- muxReply{seq: seq, reply: s.handle(client, cp, typ, fb, bulk)}
		}()
	}

	// Pipelined small requests arrive many to a segment; the buffered
	// reader amortizes their header/payload reads into one syscall.
	br := bufio.NewReaderSize(conn, 64<<10)
	// The reassembler caps concurrently-open bulk requests at the
	// dispatch bound; Close releases anything half-assembled when the
	// connection dies mid-stream (the chaos tests' leak path).
	ra := protocol.NewReassembler(s.cfg.MaxPayload, s.muxConcurrency())
	defer ra.Close()
read:
	for {
		typ, seq, n, err := protocol.ReadMuxHeader(br, s.cfg.MaxPayload)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("ninf server: mux read: %v", err)
			}
			break
		}
		switch typ {
		case protocol.MsgBulkBegin:
			fb, err := protocol.ReadMuxPayload(br, n)
			if err != nil {
				s.logf("ninf server: mux read: %v", err)
				break read
			}
			berr := ra.Begin(seq, fb.Payload(), false)
			fb.Release()
			if berr != nil {
				// Duplicate seq, oversize, or reassembly flood: the
				// stream is unsound, tear the connection down.
				s.logf("ninf server: mux read: %v", berr)
				break read
			}
		case protocol.MsgBulkChunk:
			bd, err := ra.ReadChunk(br, seq, n)
			if err != nil {
				s.logf("ninf server: mux read: %v", err)
				break read
			}
			if bd != nil {
				dispatch(bd.Type, seq, bd.FB, &bd.Bulk)
			}
		case protocol.MsgBulkAbort:
			// The client gave up mid-stream (context ended); drop the
			// partial reassembly and move on. No reply is owed.
			if n > 0 {
				fb, err := protocol.ReadMuxPayload(br, n)
				if err != nil {
					s.logf("ninf server: mux read: %v", err)
					break read
				}
				fb.Release()
			}
			ra.Abort(seq)
		default:
			fb, err := protocol.ReadMuxPayload(br, n)
			if err != nil {
				s.logf("ninf server: mux read: %v", err)
				break read
			}
			dispatch(typ, seq, fb, nil)
		}
	}
	wg.Wait()
	close(replies)
	writerWG.Wait()
}

// bulkFlight is one chunk-streamed reply in progress in the writer.
type bulkFlight struct {
	r     muxReply
	cur   protocol.BulkCursor
	begun bool
}

// muxWriteLoop is the connection's single serialized writer: it drains
// the replies channel, coalescing whatever is queued into one vectored
// write, and streams bulk replies a chunk at a time between those
// flushes — round-robin across concurrent bulk replies, so several
// large results share the wire and small replies never wait behind a
// whole payload. Active bulk replies are finished (streamed to
// completion) even after the replies channel closes: a graceful drain
// must flush partially-sent results, not truncate them. After a write
// error it keeps draining — releasing buffers so dispatch goroutines
// can finish — until the channel closes and the actives are settled.
//
// outstanding reports how many dispatch goroutines are still running.
// While more work is in flight than is sitting in the batch, the
// writer yields the processor (bounded) before flushing: near-done
// handlers get to finish and their replies join this vectored write
// instead of each costing a syscall — on a loaded single-core box the
// difference between one write per reply and one write per burst. With
// bulk chunks pending the writer never yields; the chunk write itself
// is the pause that lets replies accumulate.
//
//ninflint:hotpath
func (s *Server) muxWriteLoop(conn net.Conn, replies <-chan muxReply, outstanding func() int) {
	batch := make([]muxReply, 0, maxMuxWriteBatch)
	bufs := make([]*protocol.Buffer, 0, maxMuxWriteBatch)
	var active []*bulkFlight
	rr, burst := 0, 0
	broken := false
	open := true
	for open || len(active) > 0 {
		batch = batch[:0]
		if len(active) == 0 {
			r, ok := <-replies
			if !ok {
				open = false
				continue
			}
			takeReply(r, &batch, &active)
		}
		for yields := 0; open; {
		gather:
			for len(batch) < maxMuxWriteBatch {
				select {
				case more, ok := <-replies:
					if !ok {
						open = false
						break gather
					}
					takeReply(more, &batch, &active)
				default:
					break gather
				}
			}
			if len(active) > 0 || yields >= 2 || len(batch) >= maxMuxWriteBatch || outstanding() <= len(batch) {
				break
			}
			yields++
			runtime.Gosched()
		}
		if len(batch) > 0 {
			bufs = bufs[:0]
			for _, r := range batch {
				protocol.StampMux(r.fb, r.t, r.seq)
				bufs = append(bufs, r.fb)
			}
			if !broken {
				// muxWriteLoop is the connection's serialization point.
				if err := protocol.WriteStampedFrames(conn, bufs); err != nil {
					broken = true
					s.logf("ninf server: mux write: %v", err)
					conn.Close() // wake the read loop so the conn tears down
				}
			}
			for i := range batch {
				if !broken && batch[i].sent != nil {
					batch[i].sent()
				}
				bufs[i].Release()
				// Written or lost with the connection, this reply is no
				// longer pending; on a broken conn the client's retry path
				// owns recovery and Drain must not wait for it.
				s.replyDone()
			}
		}
		if len(active) == 0 {
			continue
		}
		rr %= len(active)
		bf := active[rr]
		done := broken
		if !broken {
			var err error
			done, err = s.bulkReplyStep(conn, bf)
			if err != nil {
				broken = true
				s.logf("ninf server: mux write: %v", err)
				conn.Close()
			}
		}
		if broken || done {
			// Fully streamed, or lost with the connection: either way
			// this reply is settled and its sent hook may run (only on a
			// complete write — a job must stay fetchable otherwise).
			if !broken && bf.r.sent != nil {
				bf.r.sent()
			}
			bf.r.bulk.Release()
			s.replyDone()
			active[rr] = active[len(active)-1]
			active = active[:len(active)-1]
			burst = 0
		} else if burst++; burst >= bulkBurstChunks {
			// Take a few consecutive chunks from one reply before
			// rotating: control replies still preempt between every
			// chunk, so this only trades inter-bulk fairness for the
			// streaming locality concurrent transfers need.
			rr++
			burst = 0
		}
	}
}

// takeReply routes one reply to the control batch or the bulk actives.
func takeReply(r muxReply, batch *[]muxReply, active *[]*bulkFlight) {
	if r.bulk != nil {
		*active = append(*active, &bulkFlight{r: r, cur: r.bulk.Cursor()})
		return
	}
	*batch = append(*batch, r)
}

// bulkReplyStep writes one frame of a streaming reply: its begin
// header first, then one bounded chunk per turn. It reports whether
// the reply is fully on the wire.
func (s *Server) bulkReplyStep(conn net.Conn, bf *bulkFlight) (bool, error) {
	if !bf.begun {
		fb := bf.r.bulk.EncodeBegin()
		//lint:ninflint sharedwrite,featgate — muxWriteLoop IS the serialization point; bulk replies are only produced by handle under caps.bulkOK
		err := protocol.WriteMuxFrameBuf(conn, protocol.MsgBulkBegin, bf.r.seq, fb)
		fb.Release()
		if err != nil {
			return false, err
		}
		bf.begun = true
		return false, nil
	}
	// muxWriteLoop is the connection's serialization point.
	return bf.cur.WriteChunk(conn, bf.r.seq, protocol.DefaultBulkChunk)
}

// maxMuxWriteBatch bounds one coalesced reply write; see mux.maxWriteBatch.
const maxMuxWriteBatch = 64

// bulkBurstChunks mirrors the client writer's burst factor (see
// internal/mux): consecutive chunks taken from one streaming reply
// before the writer rotates to the next.
const bulkBurstChunks = 4
