// Command ninfmeta runs a Ninf metaserver: it monitors a set of
// computational servers and answers placement queries from clients
// (§2.4).
//
// Usage:
//
//	ninfmeta [-addr :3100] [-policy bandwidth-aware|load-only|round-robin]
//	         [-poll 5s] [-fail-threshold 3] [-breaker-cooldown 1s]
//	         [-id meta-1] [-peers host2:3100,host3:3100] [-gossip 500ms]
//	         server1:3000 server2:3000 ...
//
// Each positional argument is a computational server address; servers
// are registered under their address as the name. Clients use
// metaserver.NewRemoteScheduler (or the multiclient examples) to route
// transactions through the daemon.
//
// With -peers the metaserver runs as one replica of a highly-available
// set: registrations and per-server observations are gossiped to every
// peer so any replica can answer placements, and clients given the
// full replica list fail over transparently when one dies. -id names
// this replica's gossip origin (defaults to the listen address) and
// must be unique across the set.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"ninf/internal/metaserver"
	"ninf/internal/placement"
)

func main() {
	addr := flag.String("addr", ":3100", "listen address")
	policy := flag.String("policy", "bandwidth-aware", "placement policy: bandwidth-aware, load-only, round-robin")
	poll := flag.Duration("poll", 5*time.Second, "server monitoring interval")
	power := flag.Float64("power", 100, "assumed server compute rate in Mflops (uniform)")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive failures (calls or polls) that open a server's circuit breaker")
	cooldown := flag.Duration("breaker-cooldown", time.Second, "how long an open breaker blocks placements before a half-open probe")
	id := flag.String("id", "", "replica identity for gossip origin stamps (default: listen address)")
	peers := flag.String("peers", "", "comma-separated peer metaserver addresses for replication")
	gossip := flag.Duration("gossip", 500*time.Millisecond, "anti-entropy gossip interval when -peers is set")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "ninfmeta: at least one computational server address is required")
		os.Exit(2)
	}
	pol, err := placement.ByName(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ninfmeta:", err)
		os.Exit(2)
	}

	origin := *id
	if origin == "" {
		origin = *addr
	}
	m := metaserver.New(metaserver.Config{
		Origin:          origin,
		Policy:          pol,
		FailThreshold:   *failThreshold,
		BreakerCooldown: *cooldown,
	})
	for _, sa := range flag.Args() {
		sa := sa
		err := m.AddServer(sa, sa, *power, func() (net.Conn, error) {
			return net.DialTimeout("tcp", sa, 5*time.Second)
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	if n := m.PollOnce(); n < flag.NArg() {
		log.Printf("ninfmeta: warning: only %d/%d servers answered the first poll", n, flag.NArg())
	}
	stop := m.StartMonitor(*poll)
	defer stop()

	nPeers := 0
	if *peers != "" {
		for _, pa := range strings.Split(*peers, ",") {
			pa = strings.TrimSpace(pa)
			if pa == "" {
				continue
			}
			if err := m.AddPeer(pa, nil); err != nil {
				log.Fatal(err)
			}
			nPeers++
		}
	}
	if nPeers > 0 {
		stopGossip := m.StartGossip(*gossip)
		defer stopGossip()
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if nPeers > 0 {
		log.Printf("ninfmeta: replica %q gossiping with %d peers every %v", origin, nPeers, *gossip)
	}
	log.Printf("ninfmeta: listening on %s, %s policy, monitoring %d servers every %v",
		l.Addr(), *policy, flag.NArg(), *poll)
	if err := m.Serve(l); err != nil {
		log.Fatal(err)
	}
}
