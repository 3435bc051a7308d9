// Package goroutinetrackbad spawns goroutine literals with no lifecycle
// tie at all — the shape behind PR 1's Add-after-Wait race.
package goroutinetrackbad

func spawnUntracked(work func()) {
	go func() {
		work()
	}()
}

func spawnLoop(jobs []func()) {
	for _, j := range jobs {
		go func(f func()) {
			f()
		}(j)
	}
}

// A worker literal draining a channel is still untracked: channel
// closure ends the loop eventually, but nothing can wait for the
// goroutine itself to finish, so shutdown cannot sequence after it.
func spawnPoolUntracked(queue chan func()) {
	for i := 0; i < 4; i++ {
		go func() {
			for job := range queue {
				job()
			}
		}()
	}
}

// Signalling completion over a channel close is not a lifecycle tie
// either — only the single receiver learns the goroutine ended, and
// only if it is still listening.
func spawnCloseNotifier(drain func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		drain()
	}()
	return done
}
