package main

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/workload"
)

// mode is how a workload's migrations cross the wire.
type mode int

const (
	// cold is stop-and-copy without a checkpoint store: the negotiated
	// sectioned (v3) snapshot over the stream chunk layer.
	cold mode = iota
	// live is the v4 pre-copy path: delta rounds while the source runs,
	// then a final paused round.
	live
	// warm is stop-and-copy with a checkpoint store on each side: a
	// manifest plus only the section bodies the destination lacks.
	warm
)

func (m mode) String() string {
	return [...]string{"cold", "live", "warm"}[m]
}

// spec is one benchmark workload: the program, the machine pair its
// process migrates back and forth between, and the transfer mode.
type spec struct {
	name string
	mode mode
	// a is the machine the process starts on; every migration moves it to
	// the other machine of the pair.
	a, b *arch.Machine
	// minSamples is the fewest timed migrations a run takes, measuring
	// past --seconds if needed; the tail percentile is fixed from it so it
	// always has at least minBeyond samples above it.
	minSamples int
	// rounds is the number of poll rounds a shards program runs (0 for
	// the single-poll programs); the run stops migrating before the
	// program could run out of polls.
	rounds int
}

// specs lists the workloads. BENCHMARK.json names all but cold-tree: one
// run of it takes 35 to 70 seconds (three five-second set-ups, then
// one-second migrate-and-verify cycles), more than the benchmark's time
// budget leaves for a fourth workload, so it is run by hand
// (--workload cold-tree).
var specs = []spec{
	{name: "cold-array", mode: cold, a: arch.DEC5000, b: arch.Ultra5, minSamples: 100},
	{name: "cold-tree", mode: cold, a: arch.DEC5000, b: arch.SPARCV9, minSamples: 40},
	{name: "live-shards", mode: live, a: arch.DEC5000, b: arch.Ultra5, minSamples: 100, rounds: 1200},
	{name: "warm-shards", mode: warm, a: arch.DEC5000, b: arch.Ultra5, minSamples: 100, rounds: 400},
}

// lookupSpec finds a workload by name.
func lookupSpec(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// firstPollSpread is how many distinct first-migration polls a seed
// chooses between on the shards workloads (one per heap list).
const firstPollSpread = 16

// inputs is what a seed generates for a workload: the MigC source the
// program receives, and the poll (1-based) at which the process first
// stops to migrate.
type inputs struct {
	source    string
	firstPoll int
}

// generate builds a workload's inputs from the seed. The seed reaches the
// program only through the generated source: it is bitonic's srand
// argument, and on the shards workloads it picks the poll of the first
// migration, which decides which heap list the first delta touches.
func generate(s *spec, seed int64) inputs {
	switch s.name {
	case "cold-array":
		// Linpack's matrix generator is seedless; the seed has nothing to
		// vary.
		return inputs{source: workload.LinpackSource(1000, false), firstPoll: 1}
	case "cold-tree":
		return inputs{source: workload.BitonicSource(100000, int(uint32(seed)>>1)), firstPoll: 1}
	case "live-shards":
		return inputs{source: workload.WriteRateSource(16, 750, 1, s.rounds), firstPoll: firstPoll(seed)}
	case "warm-shards":
		return inputs{source: workload.MutatingShardsSource(16, 1500, s.rounds), firstPoll: firstPoll(seed)}
	}
	panic("perfbench: no generator for workload " + s.name)
}

// firstPoll maps a seed to a first-migration poll in 1..firstPollSpread.
func firstPoll(seed int64) int {
	return 1 + int(uint64(seed)%firstPollSpread)
}
