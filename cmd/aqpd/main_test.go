package main

import (
	"strings"
	"testing"
	"time"
)

// validateArgs mirrors validateFlags' parameters, so that a case can change
// one of them.
type validateArgs struct {
	db                         string
	rate                       float64
	rows                       int
	z                          float64
	workers                    int
	queryTimeout               time.Duration
	maxInflight                int
	drainTimeout, rebuildEvery time.Duration
	slowlogSize, maxPending    int
	scanRate                   float64
}

func (a validateArgs) check() error {
	return validateFlags(a.db, a.rate, a.rows, a.z, a.workers, a.queryTimeout, a.maxInflight,
		a.drainTimeout, a.rebuildEvery, a.slowlogSize, a.maxPending, a.scanRate)
}

// TestValidateFlags holds every refusal of validateFlags, one bad value at a
// time against the flags' own defaults, and the zeros that mean "off" or
// "the default".
func TestValidateFlags(t *testing.T) {
	defaults := validateArgs{*dbKind, *rate, *rows, *z, *workers, *queryTimeout, *maxInflight,
		*drainTimeout, *rebuildEvery, *slowlogSize, *maxPending, *scanRate}
	if err := defaults.check(); err != nil {
		t.Fatalf("the flag defaults are refused: %v", err)
	}
	cases := []struct {
		name string
		set  func(*validateArgs)
		want string // "" = accepted
	}{
		{"unknown db", func(a *validateArgs) { a.db = "tpcds" }, "invalid -db/-rows/-z"},
		{"no rows", func(a *validateArgs) { a.rows = 0 }, "invalid -db/-rows/-z"},
		{"negative z", func(a *validateArgs) { a.z = -1 }, "invalid -db/-rows/-z"},
		{"zero rate", func(a *validateArgs) { a.rate = 0 }, "invalid -rate"},
		{"rate above 1", func(a *validateArgs) { a.rate = 1.5 }, "invalid -rate"},
		{"zero workers", func(a *validateArgs) { a.workers = 0 }, "invalid -workers"},
		{"negative query timeout", func(a *validateArgs) { a.queryTimeout = -time.Second }, "invalid -query-timeout"},
		{"negative max inflight", func(a *validateArgs) { a.maxInflight = -1 }, "invalid -max-inflight"},
		{"negative drain timeout", func(a *validateArgs) { a.drainTimeout = -time.Second }, "invalid -drain-timeout"},
		{"negative rebuild interval", func(a *validateArgs) { a.rebuildEvery = -time.Second }, "invalid -rebuild-interval"},
		{"negative slowlog size", func(a *validateArgs) { a.slowlogSize = -1 }, "invalid -slowlog-size"},
		{"negative max pending", func(a *validateArgs) { a.maxPending = -1 }, "invalid -max-pending"},
		{"negative scan rate", func(a *validateArgs) { a.scanRate = -1 }, "invalid -scan-rate"},

		{"rate 1", func(a *validateArgs) { a.rate = 1 }, ""},
		{"z 0", func(a *validateArgs) { a.z = 0 }, ""},
		{"zeros", func(a *validateArgs) {
			a.queryTimeout, a.maxInflight, a.drainTimeout, a.rebuildEvery = 0, 0, 0, 0
			a.slowlogSize, a.maxPending, a.scanRate = 0, 0, 0
		}, ""},
	}
	for _, c := range cases {
		a := defaults
		c.set(&a)
		err := a.check()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

func TestValidateShardFlags(t *testing.T) {
	cases := []struct {
		shardID, shards int
		want            string // "" = accepted
	}{
		{-1, 0, ""},
		{0, 2, ""},
		{1, 2, ""},
		{-1, -1, "invalid -shards"},
		{0, 0, "given without -shards"},
		{-1, 2, "invalid -shard-id"},
		{2, 2, "invalid -shard-id"},
	}
	for _, c := range cases {
		err := validateShardFlags(c.shardID, c.shards)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("-shard-id %d -shards %d: refused: %v", c.shardID, c.shards, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("-shard-id %d -shards %d: error %v, want one containing %q", c.shardID, c.shards, err, c.want)
		}
	}
}
