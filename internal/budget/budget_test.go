package budget

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilTokenIsUnlimited(t *testing.T) {
	var tok *T
	if err := tok.Err(); err != nil {
		t.Fatalf("nil token Err = %v", err)
	}
	if err := tok.Poll(context.Background()); err != nil {
		t.Fatalf("nil token Poll = %v", err)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tok.Poll(done); !errors.Is(err, context.Canceled) {
		t.Fatalf("nil token Poll under a cancelled context = %v", err)
	}
	if got := tok.CapSimVectors(1 << 20); got != 1<<20 {
		t.Fatalf("nil token clamped vectors to %d", got)
	}
	if tok.MaxBDDNodes() != 0 || tok.Trips() != 0 {
		t.Fatal("nil token reports a budget or trips")
	}
	tok.Cancel(nil) // must not panic
	stop := tok.AttachContext(context.Background())
	stop()
	if err := tok.TripBDD(); !errors.Is(err, ErrBDDNodes) {
		t.Fatalf("nil token TripBDD = %v", err)
	}
}

func TestCancelSticksAndWrapsCause(t *testing.T) {
	tok := New(0, 0)
	cause := errors.New("client went away")
	tok.Cancel(cause)
	tok.Cancel(errors.New("second cause ignored"))
	err := tok.Err()
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, cause) {
		t.Fatalf("Err = %v, want wrap of ErrCancelled and cause", err)
	}
}

func TestAttachContext(t *testing.T) {
	tok := New(0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	stop := tok.AttachContext(ctx)
	defer stop()
	if tok.Err() != nil {
		t.Fatal("token tripped before context cancellation")
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for tok.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("token never observed context cancellation")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(tok.Err(), ErrCancelled) {
		t.Fatalf("Err = %v, want ErrCancelled", tok.Err())
	}
}

func TestBudgets(t *testing.T) {
	tok := New(100, 512)
	if tok.MaxBDDNodes() != 100 {
		t.Fatalf("MaxBDDNodes = %d", tok.MaxBDDNodes())
	}
	if got := tok.CapSimVectors(256); got != 256 || tok.SimTrips() != 0 {
		t.Fatalf("under-budget clamp: got %d, trips %d", got, tok.SimTrips())
	}
	if got := tok.CapSimVectors(4096); got != 512 || tok.SimTrips() != 1 {
		t.Fatalf("over-budget clamp: got %d, trips %d", got, tok.SimTrips())
	}
	if err := tok.TripBDD(); !errors.Is(err, ErrBDDNodes) {
		t.Fatalf("TripBDD = %v", err)
	}
	// Budget trips do not cancel the token: the degradation chain keeps
	// running cheaper engines under it.
	if tok.Err() != nil {
		t.Fatalf("budget trip cancelled the token: %v", tok.Err())
	}
	if tok.Trips() != 2 || tok.BDDTrips() != 1 {
		t.Fatalf("Trips = %d, BDDTrips = %d", tok.Trips(), tok.BDDTrips())
	}
}
