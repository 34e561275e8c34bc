// Replica-shaped code: a lease-holding replication layer sitting on top
// of the lock package. The apply and campaign paths follow the shapes
// in internal/dfs/replica.go — acquire, mutate log/lease state, release
// — and the deliberate bug is the classic replication mistake: an early
// return when a stale term arrives that leaks the lock it took.
package lockpair

type Replica struct {
	fs      *FS
	term    int
	applied int
	leader  bool
}

// A stale-term AppendEntries rejection that forgets to release: the
// next heartbeat then deadlocks on the tree lock.
func (r *Replica) badStaleTermLeak(reqTerm int) bool {
	r.fs.lockTree() // want "not released on all paths"
	if reqTerm < r.term {
		return false
	}
	r.applied++
	r.fs.unlockTree()
	return true
}

// The canonical correct shapes from the real replica must stay silent:
// defers discharge on every exit, including the rejection branches.
func (r *Replica) goodAppend(reqTerm int) bool {
	r.fs.lockTree()
	defer r.fs.unlockTree()
	if reqTerm < r.term {
		return false
	}
	r.term = reqTerm
	r.applied++
	return true
}

func (r *Replica) goodCampaign(votes, members int) {
	r.fs.lockTree()
	if votes*2 <= members {
		r.fs.unlockTree()
		return
	}
	r.leader = true
	r.fs.unlockTree()
}

func (r *Replica) goodApplyLoop(upto int) {
	for r.applied < upto {
		r.fs.lockTree()
		r.applied++
		r.fs.unlockTree()
	}
}
