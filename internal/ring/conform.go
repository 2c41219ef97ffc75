package ring

import (
	"fmt"
	"sync"
)

// WrapUser adapts one typed ring (a Ring, or a Ledger or EventRing built
// on one) to ConformWrap.
type WrapUser struct {
	Cap int
	// Write records one entry whose other fields are all derived from seq.
	Write func(seq uint32)
	// Read returns the seqs of Recent(Cap), oldest first, or an error
	// naming a record whose fields do not match its seq (a torn record).
	Read              func() ([]uint32, error)
	Recorded, Dropped func() uint64
}

// ConformWrap is the wrap test every user of the ring runs: readers take
// the full ring while writers lap it many times over. Every record a
// reader gets back must be untorn; within one writer's seq range a batch
// only moves forward (a previous lap's slot that slipped through would
// surface behind a newer record of the same writer); every ticket is
// accounted for; and once writers stop, a full read returns every slot
// whose final-lap record was not dropped. Use a small ring (64) so each
// reader pass races a wrap, and run under -race.
func ConformWrap(u WrapUser) error {
	const workers, per = 4, 20000
	var (
		once  sync.Once
		first error
	)
	fail := func(err error) { once.Do(func() { first = err }) }
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for rd := 0; rd < 2; rd++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				seqs, err := u.Read()
				if err != nil {
					fail(fmt.Errorf("torn record at wrap: %w", err))
					return
				}
				var last [workers]int64 // newest seq seen per writer, +1
				for _, seq := range seqs {
					w := int(seq) / per
					if int64(seq) < last[w] {
						fail(fmt.Errorf("stale lap resurfaced: writer %d seq %d after %d", w, seq, last[w]-1))
						return
					}
					last[w] = int64(seq) + 1
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < per; i++ {
				u.Write(uint32(w*per + i))
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if first != nil {
		return first
	}
	if got := u.Recorded(); got != workers*per {
		return fmt.Errorf("Recorded = %d, want %d", got, workers*per)
	}
	seqs, err := u.Read()
	if err != nil {
		return fmt.Errorf("torn record in quiescent read: %w", err)
	}
	if dropped := u.Dropped(); uint64(len(seqs))+dropped < uint64(u.Cap) {
		return fmt.Errorf("quiescent full read returned %d records, want ≥ %d (cap %d − %d dropped)",
			len(seqs), uint64(u.Cap)-dropped, u.Cap, dropped)
	}
	return nil
}
