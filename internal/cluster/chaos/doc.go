// Package chaos is the in-process multi-node fault-injection harness
// behind the cluster robustness suite and rtmap-bench -cluster.
//
// Start boots N real rtmap-serve nodes on loopback listeners plus a
// cluster.Router fronting them, with a cluster.FaultInjector spliced
// into the router's transport. Faults come in two flavors: Kill/Restart
// hard-stop and revive an actual node (the listener closes, so the
// router sees genuine ECONNREFUSED dials), while Inject arms wire-level
// faults — partition, hang, slow, flap — at the router's transport
// without touching the node.
//
// The suite drives RouterURL with internal/loadgen and gates on the two
// cluster invariants: accepted requests are never dropped (every answer
// is a 200 or clean 429/503 backpressure), and results are bit-exact no
// matter which node — or which retry or hedge attempt — served them.
package chaos
