package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"shield/internal/lsm"
	"shield/internal/metrics"
	"shield/internal/resp"
)

// pendingBatch is one shard's coalesced writes for the current segment of a
// pipeline batch, plus the commit verdict the segment's replies consult.
type pendingBatch struct {
	b   *lsm.Batch
	err error
}

// queued is one command awaiting its reply. Replies are emitted strictly in
// command order; writes resolve when their shard's coalesced batch commits.
type queued struct {
	op    string // "SET", "DEL", "GET", or "" for a precomputed reply
	shard int
	key   []byte
	nDel  int64       // DEL: keys folded into this slot's reply
	ready *resp.Value // precomputed reply (PING, ECHO, errors, ...)
}

// handle runs one connection's read-execute-reply loop.
func (s *Server) handle(conn net.Conn) {
	r := resp.NewReader(conn)
	r.MaxBulkLen = s.cfg.MaxBulkLen
	w := resp.NewWriter(conn)

	for {
		// Idle deadline: a connection that cannot produce a complete
		// command within the window is a slow client and is dropped.
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)) //nolint:errcheck
		cmd, err := r.ReadCommand()
		if err != nil {
			if s.replyReadError(conn, w, err) {
				continue
			}
			return
		}

		// Pipelining: keep parsing while bytes are already buffered, so a
		// burst of commands executes as one batch with one reply flush.
		batch := [][][]byte{cmd}
		var stashed error
		for r.Buffered() > 0 && len(batch) < s.cfg.MaxPipeline {
			next, err := r.ReadCommand()
			if err != nil {
				stashed = err
				break
			}
			batch = append(batch, next)
		}

		s.pipelineBatches.Add(1)
		s.commands.Add(int64(len(batch)))
		if len(batch) > 1 {
			s.pipelinedCmds.Add(int64(len(batch)))
		}

		quit := s.execute(batch, w)
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)) //nolint:errcheck
		if err := w.Flush(); err != nil {
			s.slowClientDrops.Add(1)
			s.cfg.Logger("server: %s: reply flush: %v", conn.RemoteAddr(), err)
			return
		}
		if quit {
			return
		}
		if stashed != nil {
			if s.replyReadError(conn, w, stashed) {
				continue
			}
			return
		}
	}
}

// replyReadError answers a ReadCommand failure. It returns true when the
// connection can keep going: a recoverable protocol error gets an -ERR
// reply and the reader is already resynced at the next line. Fatal protocol
// errors get the reply but close the connection (the stream position is
// ambiguous); timeouts and I/O errors just close.
func (s *Server) replyReadError(conn net.Conn, w *resp.Writer, err error) bool {
	if resp.IsProtocolError(err) {
		s.protocolErrors.Add(1)
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)) //nolint:errcheck
		w.Error("ERR Protocol error: " + sanitize(err.Error()))   //nolint:errcheck
		w.Flush()                                                 //nolint:errcheck
		return resp.IsRecoverable(err)
	}
	if isTimeout(err) && !s.closed.Load() {
		s.slowClientDrops.Add(1)
		s.cfg.Logger("server: %s: idle/slow client dropped", conn.RemoteAddr())
	}
	return false
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// execute runs one pipeline batch: commands are classified in order,
// consecutive writes are folded into one engine batch per shard, and every
// read boundary commits the pending writes before the read executes — so a
// GET observes earlier SETs of the same pipeline and never later ones.
// Replies are written to w strictly in command order. Returns true when the
// client sent QUIT.
func (s *Server) execute(cmds [][][]byte, w *resp.Writer) (quit bool) {
	var (
		pending = make(map[int]*pendingBatch) // shard -> coalesced writes
		segment []queued                      // replies not yet emitted
	)

	write := func(shard int) *lsm.Batch {
		pb := pending[shard]
		if pb == nil {
			pb = &pendingBatch{b: lsm.NewBatch()}
			pending[shard] = pb
		}
		return pb.b
	}

	flush := func() {
		s.commitPending(pending)
		s.emit(segment, pending, w)
		pending = make(map[int]*pendingBatch)
		segment = segment[:0]
	}

	for _, args := range cmds {
		name := strings.ToUpper(string(args[0]))
		switch name {
		case "SET":
			if len(args) != 3 {
				segment = append(segment, errReply("ERR wrong number of arguments for 'set' command"))
				continue
			}
			shard := s.shardFor(args[1])
			write(shard).Put(args[1], args[2])
			s.shardStats[shard].Sets.Add(1)
			segment = append(segment, queued{op: "SET", shard: shard, key: args[1]})
		case "DEL":
			if len(args) < 2 {
				segment = append(segment, errReply("ERR wrong number of arguments for 'del' command"))
				continue
			}
			// Blind delete: a tombstone per key, no existence probe (a
			// read before every delete would defeat write coalescing), so
			// the reply counts tombstones written, not keys that existed.
			q := queued{op: "DEL", shard: -1, nDel: int64(len(args) - 1)}
			for _, key := range args[1:] {
				shard := s.shardFor(key)
				write(shard).Delete(key)
				s.shardStats[shard].Dels.Add(1)
				if q.shard == -1 {
					q.shard = shard
				} else if q.shard != shard {
					q.shard = spansShards
				}
			}
			segment = append(segment, q)
		case "GET":
			if len(args) != 2 {
				segment = append(segment, errReply("ERR wrong number of arguments for 'get' command"))
				continue
			}
			shard := s.shardFor(args[1])
			s.shardStats[shard].Gets.Add(1)
			segment = append(segment, queued{op: "GET", shard: shard, key: args[1]})
			flush() // read boundary: earlier writes must be visible, later ones must not
		case "PING":
			v := resp.Value{Kind: resp.KindStatus, Str: []byte("PONG")}
			if len(args) == 2 {
				v = resp.Value{Kind: resp.KindBulk, Str: args[1]}
			}
			segment = append(segment, queued{ready: &v})
		case "ECHO":
			if len(args) != 2 {
				segment = append(segment, errReply("ERR wrong number of arguments for 'echo' command"))
				continue
			}
			segment = append(segment, queued{ready: &resp.Value{Kind: resp.KindBulk, Str: args[1]}})
		case "INFO":
			// Flush first so the rendered counters include this pipeline's
			// own writes.
			flush()
			segment = append(segment, queued{ready: &resp.Value{Kind: resp.KindBulk, Str: s.renderInfo()}})
		case "COMMAND":
			// Client libraries probe this at connect; an empty array keeps
			// them happy without a command table.
			segment = append(segment, queued{ready: &resp.Value{Kind: resp.KindArray}})
		case "QUIT":
			segment = append(segment, queued{ready: &resp.Value{Kind: resp.KindStatus, Str: []byte("OK")}})
			flush()
			return true
		default:
			segment = append(segment, errReply(fmt.Sprintf("ERR unknown command '%s'", sanitize(name))))
		}
	}
	flush()
	return false
}

// spansShards marks a DEL whose keys hash to more than one shard; its reply
// fails if any involved shard's commit failed.
const spansShards = -2

// errReply queues a precomputed -ERR reply.
func errReply(msg string) queued {
	return queued{ready: &resp.Value{Kind: resp.KindError, Str: []byte(msg)}}
}

// sanitize strips CR/LF so client- or engine-controlled text cannot break
// reply framing.
func sanitize(sv string) string {
	return strings.Map(func(r rune) rune {
		if r == '\r' || r == '\n' {
			return ' '
		}
		return r
	}, sv)
}

// commitPending commits every shard's coalesced batch, in parallel across
// shards. Each commit joins that shard engine's group-commit loop, where it
// merges with batches arriving concurrently from other connections.
func (s *Server) commitPending(pending map[int]*pendingBatch) {
	if len(pending) == 0 {
		return
	}
	if len(pending) == 1 {
		for shard, pb := range pending {
			s.commitShard(shard, pb)
		}
		return
	}
	var wg sync.WaitGroup
	for shard, pb := range pending {
		wg.Add(1)
		go func(shard int, pb *pendingBatch) {
			defer wg.Done()
			s.commitShard(shard, pb)
		}(shard, pb)
	}
	wg.Wait()
}

func (s *Server) commitShard(shard int, pb *pendingBatch) {
	s.shardStats[shard].WriteBatches.Add(1)
	pb.err = s.cfg.Shards[shard].Write(pb.b, s.sync)
}

// emit writes the segment's replies in command order. Write replies consult
// their shard batch's commit verdict.
func (s *Server) emit(segment []queued, pending map[int]*pendingBatch, w *resp.Writer) {
	shardErr := func(shard int) error {
		if pb := pending[shard]; pb != nil {
			return pb.err
		}
		return nil
	}
	for _, q := range segment {
		switch {
		case q.ready != nil:
			writeValue(w, *q.ready)
		case q.op == "SET":
			if err := shardErr(q.shard); err != nil {
				s.shardStats[q.shard].Errors.Add(1)
				w.Error("ERR " + sanitize(err.Error())) //nolint:errcheck
			} else {
				w.Status("OK") //nolint:errcheck
			}
		case q.op == "DEL":
			var err error
			if q.shard == spansShards {
				for shard := range pending {
					if e := shardErr(shard); e != nil && err == nil {
						err = e
					}
				}
			} else {
				err = shardErr(q.shard)
			}
			if err != nil {
				w.Error("ERR " + sanitize(err.Error())) //nolint:errcheck
			} else {
				w.Int(q.nDel) //nolint:errcheck
			}
		case q.op == "GET":
			v, err := s.cfg.Shards[q.shard].Get(q.key)
			switch {
			case err == nil:
				w.Bulk(v) //nolint:errcheck
			case errors.Is(err, lsm.ErrNotFound):
				w.Null() //nolint:errcheck
			default:
				s.shardStats[q.shard].Errors.Add(1)
				w.Error("ERR " + sanitize(err.Error())) //nolint:errcheck
			}
		}
	}
}

func writeValue(w *resp.Writer, v resp.Value) {
	switch v.Kind {
	case resp.KindStatus:
		w.Status(string(v.Str)) //nolint:errcheck
	case resp.KindError:
		w.Error(string(v.Str)) //nolint:errcheck
	case resp.KindInt:
		w.Int(v.Int) //nolint:errcheck
	case resp.KindBulk:
		w.Bulk(v.Str) //nolint:errcheck
	case resp.KindArray:
		w.ArrayHeader(len(v.Array)) //nolint:errcheck
		for _, e := range v.Array {
			writeValue(w, e)
		}
	}
}

// renderInfo builds the INFO reply: a Redis-style key:value section for the
// server plus one per shard, exposing the serving counters and the engine
// counters the serving layer is accountable for — notably wal_syncs, whose
// gap below ops_set+ops_del is the visible effect of group commit.
func (s *Server) renderInfo() []byte {
	var buf bytes.Buffer
	shards := s.Stats()
	var writeBatches int64
	for _, snap := range shards {
		writeBatches += snap.WriteBatches
	}
	fmt.Fprintf(&buf, "# server\r\n")
	fmt.Fprintf(&buf, "shards:%d\r\n", len(s.cfg.Shards))
	fmt.Fprintf(&buf, "connections_opened:%d\r\n", s.connsOpened.Load())
	fmt.Fprintf(&buf, "connections_open:%d\r\n", s.connsOpen.Load())
	fmt.Fprintf(&buf, "commands:%d\r\n", s.commands.Load())
	fmt.Fprintf(&buf, "pipeline_batches:%d\r\n", s.pipelineBatches.Load())
	fmt.Fprintf(&buf, "pipelined_commands:%d\r\n", s.pipelinedCmds.Load())
	fmt.Fprintf(&buf, "write_batches:%d\r\n", writeBatches)
	fmt.Fprintf(&buf, "protocol_errors:%d\r\n", s.protocolErrors.Load())
	fmt.Fprintf(&buf, "slow_client_drops:%d\r\n", s.slowClientDrops.Load())
	for i, snap := range shards {
		fmt.Fprintf(&buf, "# shard%d\r\n", i)
		fmt.Fprintf(&buf, "ops_get:%d\r\n", snap.Gets)
		fmt.Fprintf(&buf, "ops_set:%d\r\n", snap.Sets)
		fmt.Fprintf(&buf, "ops_del:%d\r\n", snap.Dels)
		fmt.Fprintf(&buf, "write_batches:%d\r\n", snap.WriteBatches)
		fmt.Fprintf(&buf, "errors:%d\r\n", snap.Errors)
		fmt.Fprintf(&buf, "wal_syncs:%d\r\n", snap.Engine.WALSyncs)
		fmt.Fprintf(&buf, "wal_written:%d\r\n", snap.Engine.WALWritten)
		fmt.Fprintf(&buf, "engine_writes:%d\r\n", snap.Engine.Writes)
		fmt.Fprintf(&buf, "engine_gets:%d\r\n", snap.Engine.Gets)
		fmt.Fprintf(&buf, "group_commit_ratio:%.3f\r\n", snap.Engine.GroupCommitRatio())
		fmt.Fprintf(&buf, "block_cache_hits:%d\r\n", snap.Engine.BlockCacheHits)
		fmt.Fprintf(&buf, "block_cache_misses:%d\r\n", snap.Engine.BlockCacheMisses)
		fmt.Fprintf(&buf, "block_cache_pinned_bytes:%d\r\n", snap.Engine.BlockCachePinned)
		fmt.Fprintf(&buf, "prefix_seeks:%d\r\n", snap.Engine.PrefixSeeks)
		fmt.Fprintf(&buf, "prefix_skips:%d\r\n", snap.Engine.PrefixSkips)
		fmt.Fprintf(&buf, "flushes:%d\r\n", snap.Engine.Flushes)
		fmt.Fprintf(&buf, "compactions:%d\r\n", snap.Engine.Compactions)
	}
	// Network fault-tolerance counters, with the per-replica breakdown when
	// the engine runs over replicated storage: an operator reading INFO can
	// see WHICH storage node is failing over, resyncing, or eating errors.
	nv := metrics.Net.Snapshot()
	fmt.Fprintf(&buf, "# net\r\n")
	fmt.Fprintf(&buf, "net_retries:%d\r\n", nv.Retries)
	fmt.Fprintf(&buf, "net_timeouts:%d\r\n", nv.Timeouts)
	fmt.Fprintf(&buf, "net_failovers:%d\r\n", nv.Failovers)
	fmt.Fprintf(&buf, "net_redials:%d\r\n", nv.Redials)
	fmt.Fprintf(&buf, "degraded_writes:%d\r\n", nv.DegradedWrites)
	fmt.Fprintf(&buf, "degraded_reads:%d\r\n", nv.DegradedReads)
	fmt.Fprintf(&buf, "quorum_shortfalls:%d\r\n", nv.QuorumShortfalls)
	fmt.Fprintf(&buf, "resyncs:%d\r\n", nv.Resyncs)
	fmt.Fprintf(&buf, "resync_bytes:%d\r\n", nv.ResyncBytes)
	for i, addr := range nv.EndpointOrder() {
		es := nv.Endpoints[addr]
		fmt.Fprintf(&buf, "# replica%d\r\n", i)
		fmt.Fprintf(&buf, "addr:%s\r\n", sanitize(addr))
		fmt.Fprintf(&buf, "failovers:%d\r\n", es.Failovers)
		fmt.Fprintf(&buf, "errors:%d\r\n", es.Errors)
		fmt.Fprintf(&buf, "resyncs:%d\r\n", es.Resyncs)
		fmt.Fprintf(&buf, "resync_bytes:%d\r\n", es.ResyncBytes)
	}
	return buf.Bytes()
}
