package main

import (
	"math"
	"sort"
	"time"
)

// workload is one traffic mix against netartd. Why each exists is in
// README.md; the short form is the why string in BENCHMARK.json.
type workload struct {
	name string
	// fresh is the family every new design is drawn from.
	fresh family
	// format is the rendering every request asks for.
	format string
	// clients > 0 makes a closed loop with that many clients; 0 an
	// open loop at rate arrivals per second.
	clients int
	rate    float64
	// A closed loop cycles through a design list of listLen fresh
	// designs, each request under a name of its own so that it misses
	// the cache, and sends at least minOps requests. Quality and the
	// per-layer counters are summed over the list, so they repeat
	// exactly for a seed, and only the list needs checking in process.
	listLen int
	minOps  int
	// tailP is the percentile reported as latency_tail_ms. It is fixed
	// per workload, at the highest one a run always has at least ten
	// samples beyond.
	tailP float64
	// setups is how many times set-up is repeated for setup_s.
	setups int
	// Set-up ends by sending warmN designs of family warm through the
	// daemon, so the measured window starts past its start-up transient
	// (a fresh daemon serves its first few seconds measurably slower).
	// In the open loop they are the hot set.
	warm  family
	warmN int
	// Open-loop mix: a Zipf(zipfS) choice over the hot set and a jobFrac
	// share of fresh designs submitted as async jobs.
	zipfS   float64
	jobFrac float64
}

var workloads = []workload{
	{
		name:    "cold-mid",
		fresh:   midUniform,
		format:  "svg",
		clients: 1,
		listLen: 96,
		minOps:  100,
		tailP:   0.90,
		setups:  5,
		warm:    family{prefix: "warm", minN: 40, maxN: 120, strata: 16, fixedSizes: true},
		warmN:   16,
	},
	{
		name:    "cold-large",
		fresh:   largeClustered,
		format:  "svg",
		clients: 1,
		listLen: 24,
		minOps:  40,
		tailP:   0.75,
		setups:  5,
		warm:    family{prefix: "warmbig", minN: 256, maxN: 384, cluster: 8, crossFrac: 0.10, strata: 8, fixedSizes: true},
		warmN:   4,
	},
	{
		name:   "hot-mix",
		fresh:  family{prefix: "job", minN: 24, maxN: 64, strata: 16},
		format: "ascii",
		rate:   100,
		tailP:  0.90,
		setups: 5,
		// The hot set's sizes do not depend on the seed: design k is the
		// k-th most popular, and which sizes are popular would otherwise
		// move the hit latency from seed to seed.
		warm:    family{prefix: "hot", minN: 40, maxN: 120, strata: 64, fixedSizes: true},
		warmN:   64,
		zipfS:   1.1,
		jobFrac: 0.05,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// arrival is one open-loop operation: a hit on hot design design, or
// (when job is true) a fresh design submitted as a job; the run fills
// in a job's design index.
type arrival struct {
	at     time.Duration
	job    bool
	design int
}

// schedule draws the open loop's arrivals for a run of dur: n =
// w.rate·dur arrivals at uniformly random times, which is a Poisson
// process at w.rate conditioned on its count, so every seed offers the
// same load. Exactly round(w.jobFrac·n) of them, chosen at random, are
// jobs; the rest are hits on hot design k with probability
// proportional to 1/(k+1)^w.zipfS.
func (w workload) schedule(seed int64, dur time.Duration) []arrival {
	r := newRNG(streamSeed(seed, w.name+"/schedule", 0))
	cdf := make([]float64, w.warmN)
	var tot float64
	for k := range cdf {
		tot += 1 / math.Pow(float64(k+1), w.zipfS)
		cdf[k] = tot
	}
	out := make([]arrival, int(math.Round(w.rate*dur.Seconds())))
	for i := range out {
		out[i].at = time.Duration(r.float() * float64(dur))
		out[i].design = sort.SearchFloat64s(cdf, r.float()*tot)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	jobs := int(math.Round(w.jobFrac * float64(len(out))))
	for k := 0; k < jobs; k++ {
		// Pick a random arrival among those not yet jobs.
		for {
			if i := r.intn(len(out)); !out[i].job {
				out[i].job = true
				break
			}
		}
	}
	return out
}
