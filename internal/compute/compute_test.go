package compute

import "testing"

func TestNewPoolZeroWorkersIsNil(t *testing.T) {
	if p := NewPool(0); p != nil {
		t.Fatal("NewPool(0) must return nil")
	}
	if p := NewPool(-3); p != nil {
		t.Fatal("NewPool(-3) must return nil")
	}
	if p := NewPool(1); p == nil {
		t.Fatal("NewPool(1) must return a handle")
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close()
	var none *Pool
	none.Close()
}

func TestPoolOf(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	if got := PoolOf(struct{}{}); got != nil {
		t.Fatal("PoolOf of a non-provider must be nil")
	}
	if got := PoolOf(provider{p}); got != p {
		t.Fatal("PoolOf must return the provider's pool")
	}
}

type provider struct{ p *Pool }

func (pr provider) ComputePool() *Pool { return pr.p }
