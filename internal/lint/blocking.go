package lint

import (
	"go/ast"
	"go/types"
)

// Import paths of the repo packages whose types the analyzers key on.
const (
	diskPath     = "knnpc/internal/disk"
	netstorePath = "knnpc/internal/netstore"
)

// blockingCall classifies a call that can stall on the emulated
// spindle or the network — the operations that must never run under a
// mutex (locksleep) and that make a loop iteration long enough to owe
// a cancellation check (ctxloop). The classification is direct-call
// only: a helper that wraps a Device.Read is not traced through, by
// design — the invariant is enforced where the blocking primitive is
// touched, and wrappers get their own findings when they hold locks.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	obj := calleeObj(info, call)
	if obj == nil {
		return "", false
	}
	name := obj.Name()
	// The emulated single-spindle device: every access sleeps the
	// modeled seek/transfer time.
	if isMethodOn(obj, diskPath, "Device") {
		switch name {
		case "Read", "Write", "Append":
			return "(*disk.Device)." + name + " sleeps the emulated spindle", true
		case "Fault":
			return "(*disk.Device).Fault sleeps any injected stall", true
		}
	}
	// Store clients: every method is at least one network round-trip.
	// NumShards is pure bookkeeping.
	if isMethodOn(obj, netstorePath, "Client") && name != "NumShards" {
		return "(netstore client)." + name + " is a network round-trip", true
	}
	// Raw net I/O (conns, listeners) and explicit sleeps.
	if recvPkgPath(obj) == "net" {
		switch name {
		case "Read", "Write", "Accept", "ReadFrom", "WriteTo":
			return "net." + name + " blocks on the peer", true
		}
	}
	if isPkgFunc(obj, "time", "Sleep") {
		return "time.Sleep blocks", true
	}
	return "", false
}
