package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/session"
	"repro/internal/store"
	"repro/internal/vm"
)

// program is the registry name both sides know the workload's program by.
const program = "perfbench"

// maxSteps bounds every process's execution so a broken program fails
// instead of spinning forever.
const maxSteps = 2_000_000_000

// pollReserve is how many polls a shards run keeps unused for the
// traced run's replays and for the last process's run to completion.
const pollReserve = 40

// chain is one workload's process as it migrates back and forth between
// the two machines of its pair. Both sides run in this process.
type chain struct {
	spec *spec
	eng  *core.Engine
	reg  *session.Registry
	mach [2]*arch.Machine
	// stores are the checkpoint stores of side a and side b (warm only).
	stores [2]*store.Store
	// p is the current process, stopped at a poll on mach[at].
	p  *vm.Process
	at int
	// ref is the source's capture at the first migration point; on cold
	// workloads every hop must recapture to exactly these bytes.
	ref []byte
	// polls counts the polls the hook granted; lastPause is when it last
	// paused the source, and lastPauseCPU the process CPU time then.
	polls        int
	lastPause    time.Time
	lastPauseCPU time.Duration
	// deadline is when measure stops taking new migrations.
	deadline time.Time
}

// setupTimes splits one set-up into its parts, in wall time, and gives
// the CPU time the whole set-up took.
type setupTimes struct {
	compile, runToPoll, total time.Duration
	cpu                       time.Duration
}

// newChain compiles the workload, runs it to its first poll, and on
// warm-shards primes both stores with one cold checkpoint migration: that
// is the set-up it times. Between the first poll and the priming it
// advances the process, untimed, to the seed's first migration poll;
// like generating the source, that picks the workload's input state, and
// timing it would make set-up time depend on the seed. dir holds the
// stores.
func newChain(s *spec, in inputs, dir string) (*chain, setupTimes, error) {
	var st setupTimes
	cpu0 := procCPU()
	start := time.Now()
	eng, err := core.NewEngine(in.source, minic.PollPolicy{})
	if err != nil {
		return nil, st, fmt.Errorf("compile: %w", err)
	}
	st.compile = time.Since(start)
	c := &chain{spec: s, eng: eng, reg: session.NewRegistry(), mach: [2]*arch.Machine{s.a, s.b}}
	c.reg.Add(program, eng)
	p, err := eng.NewProcess(s.a)
	if err != nil {
		return nil, st, err
	}
	c.adopt(p)
	res, err := p.Run()
	st.runToPoll = time.Since(start) - st.compile
	st.total, st.cpu = time.Since(start), procCPU()-cpu0
	for err == nil && res.Migrated && c.polls < in.firstPoll {
		res, err = p.ResumeRun()
	}
	if err != nil {
		return nil, st, fmt.Errorf("run to first poll: %w", err)
	}
	if !res.Migrated {
		return nil, st, fmt.Errorf("program exited (code %d) before poll %d", res.ExitCode, in.firstPoll)
	}
	if s.mode == cold {
		if c.ref, err = p.Recapture(); err != nil {
			return nil, st, err
		}
	}
	if s.mode == warm {
		for i, side := range []string{"a", "b"} {
			if c.stores[i], err = store.Open(filepath.Join(dir, side), nil); err != nil {
				return nil, st, err
			}
		}
		cpu0 = procCPU()
		start = time.Now()
		if _, err := c.migrate(nil); err != nil {
			return nil, st, fmt.Errorf("priming checkpoint: %w", err)
		}
		st.total += time.Since(start)
		st.cpu += procCPU() - cpu0
	}
	return c, st, nil
}

// adopt makes p the chain's current process: paused by the chain's own
// hook at every poll, and resumable in place.
func (c *chain) adopt(p *vm.Process) {
	p.MaxSteps = maxSteps
	p.NoAutoCapture = true
	p.PollHook = func(*vm.Process, *minic.Site) bool {
		c.polls++
		c.lastPause = time.Now()
		c.lastPauseCPU = procCPU()
		return true
	}
	c.p = p
}

// pollsLeft reports how many polls the program has not reached yet, or a
// large number for the single-poll programs, which never resume.
func (c *chain) pollsLeft() int {
	if c.spec.rounds == 0 {
		return 1 << 30
	}
	return c.spec.rounds - c.polls
}

// canMigrate reports whether one more migration leaves the poll reserve
// intact: a live migration resumes the source for up to PrecopyRounds+1
// polls, a warm one advances it by one.
func (c *chain) canMigrate() bool {
	need := 1
	if c.spec.mode == live {
		need = 5
	}
	return c.pollsLeft() >= need+pollReserve
}

// advance resumes the current process to its next poll, untimed.
func (c *chain) advance() error {
	res, err := c.p.ResumeRun()
	if err != nil {
		return err
	}
	if !res.Migrated {
		return fmt.Errorf("program exited (code %d) while advancing", res.ExitCode)
	}
	return nil
}

// hop is one completed migration.
type hop struct {
	// downtime runs from the source's last pause to Respond returning the
	// committed destination process; total runs from the first OFFER
	// (the call to Initiate, whose first act is sending it) to the same
	// end.
	downtime, total time.Duration
	// downCPU and totalCPU are the CPU time both sides (this whole
	// process) spent over the same two intervals.
	downCPU, totalCPU time.Duration
	// wire and frames count the payload bytes and frames both sides
	// handed to the transport.
	wire, frames int64
	res          *session.Result
}

// migrate moves the current process to the other machine of the pair over
// a fresh loopback TCP connection, verifies it, and makes the restored
// process current. A failed migration leaves the chain unusable. When tr
// is set it wraps both ends of the connection before the migration starts
// and sees the hop as soon as the destination has committed, before
// verification.
func (c *chain) migrate(tr *tracer) (hop, error) {
	srv, cli, cleanup, err := link.LoopbackPair()
	if err != nil {
		return hop{}, err
	}
	defer cleanup()
	var wire, frames atomic.Int64
	var ini, rsp link.Transport = countingTransport{cli, &wire, &frames}, countingTransport{srv, &wire, &frames}
	if tr != nil {
		ini, rsp = tr.wrap(ini, rsp)
	}
	isLive := c.spec.mode == live
	from, to := c.mach[c.at], c.mach[1-c.at]
	icfg := session.Config{Live: isLive, Store: c.stores[c.at]}
	rcfg := session.Config{Live: isLive, Store: c.stores[1-c.at]}
	type answer struct {
		q   *vm.Process
		at  time.Time
		cpu time.Duration
		err error
	}
	done := make(chan answer, 1)
	go func() {
		_, q, _, err := session.Respond(rsp, c.reg, to, rcfg)
		at := time.Now()
		done <- answer{q, at, procCPU(), err}
	}()

	startCPU := procCPU()
	start := time.Now()
	var res *session.Result
	if isLive {
		res, err = session.InitiateLive(ini, c.eng, from, program, c.p, icfg)
	} else {
		res, err = session.Initiate(ini, c.eng, from, program, c.p, icfg)
	}
	if err != nil {
		// Fail the responder's pending read so its goroutine returns.
		cleanup()
	}
	ans := <-done
	if err == nil {
		err = ans.err
	}
	if err != nil {
		return hop{}, err
	}
	pause, pauseCPU := start, startCPU
	if isLive {
		pause, pauseCPU = c.lastPause, c.lastPauseCPU
	}
	h := hop{
		downtime: ans.at.Sub(pause),
		total:    ans.at.Sub(start),
		downCPU:  ans.cpu - pauseCPU,
		totalCPU: ans.cpu - startCPU,
		wire:     wire.Load(),
		frames:   frames.Load(),
		res:      res,
	}
	if tr != nil {
		tr.done(h)
	}
	if err := c.verifyHop(ans.q); err != nil {
		return h, err
	}
	c.adopt(ans.q)
	c.at = 1 - c.at
	if c.spec.mode == warm {
		// The next migration carries one changed heap list.
		return h, c.advance()
	}
	return h, nil
}

// verifyHop checks a restored process before it becomes current: on cold
// workloads its recapture must equal the source's first capture byte for
// byte. Live and warm states change between hops; finish checks them.
func (c *chain) verifyHop(q *vm.Process) error {
	if c.spec.mode != cold {
		return nil
	}
	re, err := q.Recapture()
	if err != nil {
		return err
	}
	if !bytes.Equal(re, c.ref) {
		return fmt.Errorf("restored state on %s differs from the source's capture (%d vs %d bytes)", q.Mach.Name, len(re), len(c.ref))
	}
	return nil
}

// finish runs the current process to completion without further
// migrations. Exit 0 is the program's own check that every heap word
// survived every migration.
func (c *chain) finish() error {
	c.p.PollHook = nil
	res, err := c.p.ResumeRun()
	if err != nil {
		return fmt.Errorf("run to completion: %w", err)
	}
	if res.Migrated || res.ExitCode != 0 {
		return fmt.Errorf("run to completion: migrated=%v exit %d, want exit 0", res.Migrated, res.ExitCode)
	}
	return nil
}

// removeAll deletes a run's scratch directory, reporting failure on
// stderr only: a leftover directory under the build dir harms nothing.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
