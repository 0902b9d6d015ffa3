package server

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"ninf/internal/idl"
)

// A Handler is the Go implementation behind a Ninf executable. It
// receives the decoded argument vector (one entry per IDL parameter;
// out-only entries pre-allocated and zeroed) and mutates out and inout
// values in place. The context is cancelled if the client disconnects
// or the server shuts down. The vector and its arrays are lent for the
// length of the call: the server recycles the arrays once the reply is
// built, so a handler must not keep args or sub-slices of its arrays
// after it returns (copy what it wants to keep). It may put a value of
// its own in an entry; that value is encoded and left alone.
type Handler func(ctx context.Context, args []idl.Value) error

// An Executable is a registered routine: its compiled interface plus
// its implementation. It corresponds to the paper's "Ninf executable",
// the semi-automatically generated binary registered on the server
// process (§2.1) — here the stub generator output is a Go Handler.
type Executable struct {
	Info    *idl.Info
	Handler Handler
	// PEs overrides the server's execution-mode processor allocation
	// for this routine; 0 means use the server default.
	PEs int
}

// A Registry maps routine names to executables. It is safe for
// concurrent use; registration after the server starts is allowed
// (tools may add routines at run time).
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*Executable
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Executable)}
}

// Register adds an executable, validating its interface. Registering a
// name twice is an error: the paper's servers treat names as stable
// identities that metaservers cache.
func (r *Registry) Register(ex *Executable) error {
	if ex == nil || ex.Info == nil {
		return fmt.Errorf("server: nil executable")
	}
	if ex.Handler == nil {
		return fmt.Errorf("server: %s: nil handler", ex.Info.Name)
	}
	if err := idl.Check(ex.Info); err != nil {
		return err
	}
	if ex.PEs < 0 {
		return fmt.Errorf("server: %s: negative PE override", ex.Info.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[ex.Info.Name]; dup {
		return fmt.Errorf("server: %s: already registered", ex.Info.Name)
	}
	r.byName[ex.Info.Name] = ex
	r.order = append(r.order, ex.Info.Name)
	return nil
}

// RegisterIDL parses IDL source and binds each Define to the handler of
// the same name from handlers. Every Define must have a handler and
// every handler a Define.
func (r *Registry) RegisterIDL(src string, handlers map[string]Handler) error {
	infos, err := idl.Parse(src)
	if err != nil {
		return err
	}
	if len(infos) != len(handlers) {
		return fmt.Errorf("server: IDL defines %d routines, %d handlers supplied", len(infos), len(handlers))
	}
	for _, info := range infos {
		h, ok := handlers[info.Name]
		if !ok {
			return fmt.Errorf("server: no handler for IDL routine %q", info.Name)
		}
		if err := r.Register(&Executable{Info: info, Handler: h}); err != nil {
			return err
		}
	}
	return nil
}

// Lookup returns the executable for name, or nil.
func (r *Registry) Lookup(name string) *Executable {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byName[name]
}

// Names returns the registered routine names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// SortedNames returns the names sorted, for stable display.
func (r *Registry) SortedNames() []string {
	n := r.Names()
	sort.Strings(n)
	return n
}
