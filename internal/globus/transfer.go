package globus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Permission is an access level on a collection.
type Permission int

const (
	// PermNone denies access.
	PermNone Permission = iota
	// PermRead allows Get/Stat/List.
	PermRead
	// PermReadWrite additionally allows Put/Delete.
	PermReadWrite
)

// Endpoint is an in-memory storage endpoint holding named collections (the
// ALCF Eagle Globus endpoint stand-in). All methods are safe for concurrent
// use.
type Endpoint struct {
	Name string

	mu          sync.RWMutex
	collections map[string]*collection
}

type collection struct {
	files map[string][]byte
	acl   map[string]Permission // identity -> permission
	owner string
}

// NewEndpoint creates an endpoint with no collections.
func NewEndpoint(name string) *Endpoint {
	return &Endpoint{Name: name, collections: map[string]*collection{}}
}

// CreateCollection registers a collection owned by identity, who receives
// read-write access.
func (e *Endpoint) CreateCollection(name, owner string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.collections[name]; ok {
		return fmt.Errorf("globus: collection %q already exists on %s", name, e.Name)
	}
	e.collections[name] = &collection{
		files: map[string][]byte{},
		acl:   map[string]Permission{owner: PermReadWrite},
		owner: owner,
	}
	return nil
}

// SetPermission grants identity a permission on the collection. Only the
// owner may change the ACL — this is the "directly shareable with public
// health stakeholders through standard Globus Collection permissions"
// mechanism of §2.2.
func (e *Endpoint) SetPermission(coll, actor, identity string, p Permission) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.collections[coll]
	if !ok {
		return fmt.Errorf("%w: collection %q", ErrNotFound, coll)
	}
	if c.owner != actor {
		return fmt.Errorf("%w: only owner %q may change ACLs", ErrForbidden, c.owner)
	}
	c.acl[identity] = p
	return nil
}

func (e *Endpoint) check(coll, identity string, want Permission) (*collection, error) {
	c, ok := e.collections[coll]
	if !ok {
		return nil, fmt.Errorf("%w: collection %q on %s", ErrNotFound, coll, e.Name)
	}
	if c.acl[identity] < want {
		return nil, fmt.Errorf("%w: %q on %s/%s", ErrForbidden, identity, e.Name, coll)
	}
	return c, nil
}

// Put stores data at path within the collection.
func (e *Endpoint) Put(coll, path, identity string, data []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, err := e.check(coll, identity, PermReadWrite)
	if err != nil {
		return err
	}
	c.files[path] = append([]byte(nil), data...)
	return nil
}

// Get retrieves the file at path.
func (e *Endpoint) Get(coll, path, identity string) ([]byte, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	c, err := e.check(coll, identity, PermRead)
	if err != nil {
		return nil, err
	}
	data, ok := c.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s:%s", ErrNotFound, e.Name, coll, path)
	}
	return append([]byte(nil), data...), nil
}

// List returns the paths in a collection, optionally filtered by prefix,
// sorted lexicographically.
func (e *Endpoint) List(coll, prefix, identity string) ([]string, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	c, err := e.check(coll, identity, PermRead)
	if err != nil {
		return nil, err
	}
	var out []string
	for p := range c.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Checksum returns the SHA-256 of the file at path.
func (e *Endpoint) Checksum(coll, path, identity string) (string, error) {
	data, err := e.Get(coll, path, identity)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// TransferStatus enumerates transfer task states.
type TransferStatus int

const (
	TransferActive TransferStatus = iota
	TransferSucceeded
	TransferFailed
)

// TransferTask is a handle to an asynchronous transfer.
type TransferTask struct {
	ID       string
	done     chan struct{}
	mu       sync.Mutex
	status   TransferStatus
	err      error
	Checksum string
	Started  time.Time
	Finished time.Time
}

// Status returns the task's current state and terminal error.
func (t *TransferTask) Status() (TransferStatus, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status, t.err
}

// Wait blocks until the transfer terminates.
func (t *TransferTask) Wait() error {
	<-t.done
	_, err := t.Status()
	return err
}

// Location names a file on an endpoint collection.
type Location struct {
	Endpoint   *Endpoint
	Collection string
	Path       string
}

func (l Location) String() string {
	name := "<nil>"
	if l.Endpoint != nil {
		name = l.Endpoint.Name
	}
	return fmt.Sprintf("%s/%s:%s", name, l.Collection, l.Path)
}

// TransferService moves files between endpoints asynchronously with
// checksum verification, requiring a transfer-scoped token.
type TransferService struct {
	auth *Auth
	mu   sync.Mutex
	// Latency simulates wide-area transfer delay per task (0 for tests).
	Latency time.Duration
	tasks   map[string]*TransferTask
}

// NewTransferService creates the service bound to an Auth issuer.
func NewTransferService(auth *Auth) *TransferService {
	return &TransferService{auth: auth, tasks: map[string]*TransferTask{}}
}

// Submit starts an asynchronous copy of src to dst on behalf of the token's
// identity. The write happens atomically after checksum verification.
func (s *TransferService) Submit(tokenID string, src, dst Location) (*TransferTask, error) {
	tok, err := s.auth.Validate(tokenID, ScopeTransfer)
	if err != nil {
		return nil, err
	}
	if src.Endpoint == nil || dst.Endpoint == nil {
		return nil, fmt.Errorf("globus: transfer requires both endpoints")
	}
	task := &TransferTask{ID: randomID("xfer"), done: make(chan struct{}), Started: time.Now()}
	s.mu.Lock()
	s.tasks[task.ID] = task
	s.mu.Unlock()

	go func() {
		defer close(task.done)
		finish := func(st TransferStatus, err error) {
			task.mu.Lock()
			task.status, task.err = st, err
			task.Finished = time.Now()
			task.mu.Unlock()
		}
		if s.Latency > 0 {
			time.Sleep(s.Latency)
		}
		data, err := src.Endpoint.Get(src.Collection, src.Path, tok.Identity)
		if err != nil {
			finish(TransferFailed, fmt.Errorf("globus: transfer read: %w", err))
			return
		}
		srcSum := sha256.Sum256(data)
		if err := dst.Endpoint.Put(dst.Collection, dst.Path, tok.Identity, data); err != nil {
			finish(TransferFailed, fmt.Errorf("globus: transfer write: %w", err))
			return
		}
		dstSumHex, err := dst.Endpoint.Checksum(dst.Collection, dst.Path, tok.Identity)
		if err != nil || dstSumHex != hex.EncodeToString(srcSum[:]) {
			finish(TransferFailed, fmt.Errorf("globus: checksum mismatch after transfer"))
			return
		}
		task.mu.Lock()
		task.Checksum = dstSumHex
		task.mu.Unlock()
		finish(TransferSucceeded, nil)
	}()
	return task, nil
}

// Task looks up a transfer by ID.
func (s *TransferService) Task(id string) (*TransferTask, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tasks[id]
	if !ok {
		return nil, fmt.Errorf("%w: transfer %s", ErrNotFound, id)
	}
	return t, nil
}

// SubmitPrefix transfers every file under srcPrefix in the source
// collection to the destination collection, rewriting srcPrefix to
// dstPrefix. It returns one task per file plus an aggregate wait function —
// the recursive-directory transfer shape Globus users rely on for staging
// whole result sets.
func (s *TransferService) SubmitPrefix(tokenID string, src Location, srcPrefix string, dst Location, dstPrefix string) ([]*TransferTask, func() error, error) {
	tok, err := s.auth.Validate(tokenID, ScopeTransfer)
	if err != nil {
		return nil, nil, err
	}
	if src.Endpoint == nil || dst.Endpoint == nil {
		return nil, nil, fmt.Errorf("globus: transfer requires both endpoints")
	}
	paths, err := src.Endpoint.List(src.Collection, srcPrefix, tok.Identity)
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("%w: no files under %s/%s:%s", ErrNotFound, src.Endpoint.Name, src.Collection, srcPrefix)
	}
	var tasks []*TransferTask
	for _, p := range paths {
		rel := strings.TrimPrefix(p, srcPrefix)
		task, err := s.Submit(tokenID,
			Location{src.Endpoint, src.Collection, p},
			Location{dst.Endpoint, dst.Collection, dstPrefix + rel})
		if err != nil {
			return tasks, nil, err
		}
		tasks = append(tasks, task)
	}
	wait := func() error {
		for _, t := range tasks {
			if err := t.Wait(); err != nil {
				return err
			}
		}
		return nil
	}
	return tasks, wait, nil
}
