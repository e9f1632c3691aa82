// Package runsite plays the Runner-submission role: it holds configs
// whose pointer fields are shared, so every write path through them —
// direct, aliased, or buried three packages down the call chain — must
// be flagged here, at the site that handed the shared state away.
package runsite

import (
	"sharedmut/conf"
	"sharedmut/mid"
)

// submitted is enclosing-scope state a Tweak must not touch.
var submitted int

// poolMix is shared by every config in the batch.
var poolMix = &conf.Mix{}

// fresh returns a private mix.
func fresh() *conf.Mix { return &conf.Mix{} }

// good exercises the allowed patterns: reads, pointer replacement,
// per-run mutation inside Tweak, and an ambiguous local the
// flow-insensitive alias analysis must not flag.
func good(cfg *conf.Config) {
	_ = cfg.Mix.Total // reads are fine
	cfg.Mix = fresh() // replacing the pointer is fine
	cfg.Tweak = func(s *conf.Spec) {
		s.Threads = 2000 // mutating the per-run argument is fine
	}
	m := cfg.Mix
	m = fresh() // not every assignment is shared-rooted: m is ambiguous
	m.Total = 1
	_ = m
}

// bad exercises every flagged path.
func bad(cfg *conf.Config) {
	cfg.Mix.Total = 3 // want `write through shared pointer field Mix`
	cfg.Mix.Add(1)    // want `shared pointer field Mix passed to Add`
	mid.Tune(cfg.Mix) // want `shared pointer field Mix passed to Tune`
	a := cfg.Mix
	a.Total = 2 // want `write through a, an alias of shared pointer field Mix`
	mid.Tune(a) // want `alias of shared pointer field Mix passed to Tune`
	cfg.Tweak = func(s *conf.Spec) {
		s.Threads = 1
		submitted++       // want `closure writes captured variable submitted`
		mid.Tune(poolMix) // want `closure passes captured variable poolMix to Tune`
	}
}

// batch builds a config in literal form; the closure is still checked.
func batch() conf.Config {
	return conf.Config{
		Name: "literal",
		Tweak: func(s *conf.Spec) {
			submitted++ // want `closure writes captured variable submitted`
		},
	}
}

// allowed demonstrates the escape hatch.
func allowed(cfg *conf.Config) {
	//lint:allow effects fixture demonstrates the escape hatch
	cfg.Mix.Total = 4
}
