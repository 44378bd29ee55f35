package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"

	"unitp/internal/store"
)

// memfdBackend is a store.Backend whose files are anonymous tmpfs files
// (memfd_create): the store's writes and fsyncs are the same write(2)
// and fsync(2) calls store.DirBackend makes, into tmpfs, but the files
// have no path, so nothing is written outside the benchmark's checkout.
// File contents live in the kernel's shared memory, not on the Go heap,
// so heap and allocation metrics see only what the program itself
// keeps, as they would over DirBackend. Unlike DirBackend it makes no
// directory fsync after a create, rename or remove (a no-op on tmpfs).
// Call release to free the files.
type memfdBackend struct {
	mu    sync.Mutex
	files map[string]*memfdFile
}

// memfdFile is one file: the descriptor and the bytes written to it.
type memfdFile struct {
	f    *os.File
	size atomic.Int64
}

var _ store.Backend = (*memfdBackend)(nil)

func newMemfdBackend() *memfdBackend {
	return &memfdBackend{files: map[string]*memfdFile{}}
}

// memfdCreate is memfd_create(2) with MFD_CLOEXEC. The syscall package
// has no wrapper, so the call number is chosen by architecture.
func memfdCreate(name string) (*os.File, error) {
	var trap uintptr
	switch {
	case runtime.GOOS == "linux" && runtime.GOARCH == "amd64":
		trap = 319
	case runtime.GOOS == "linux" && runtime.GOARCH == "arm64":
		trap = 279
	default:
		return nil, fmt.Errorf("memfd_create: unsupported on %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	p, err := syscall.BytePtrFromString(name)
	if err != nil {
		return nil, err
	}
	const mfdCloexec = 1
	fd, _, errno := syscall.Syscall(trap, uintptr(unsafe.Pointer(p)), mfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("memfd_create %s: %w", name, errno)
	}
	return os.NewFile(fd, name), nil
}

// List implements store.Backend.
func (b *memfdBackend) List() ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, 0, len(b.files))
	for name := range b.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// ReadFile implements store.Backend.
func (b *memfdBackend) ReadFile(name string) ([]byte, error) {
	b.mu.Lock()
	mf, ok := b.files[name]
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", store.ErrNotExist, name)
	}
	data := make([]byte, mf.size.Load())
	if _, err := mf.f.ReadAt(data, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return data, nil
}

// Create implements store.Backend: a fresh file replaces any of the same
// name, as O_TRUNC would.
func (b *memfdBackend) Create(name string) (store.File, error) {
	f, err := memfdCreate(name)
	if err != nil {
		return nil, err
	}
	mf := &memfdFile{f: f}
	b.mu.Lock()
	old := b.files[name]
	b.files[name] = mf
	b.mu.Unlock()
	if old != nil {
		old.f.Close()
	}
	return &memfdHandle{mf: mf}, nil
}

// Rename implements store.Backend.
func (b *memfdBackend) Rename(oldname, newname string) error {
	b.mu.Lock()
	mf, ok := b.files[oldname]
	if !ok {
		b.mu.Unlock()
		return fmt.Errorf("%w: %s", store.ErrNotExist, oldname)
	}
	replaced := b.files[newname]
	delete(b.files, oldname)
	b.files[newname] = mf
	b.mu.Unlock()
	if replaced != nil {
		return replaced.f.Close()
	}
	return nil
}

// Remove implements store.Backend.
func (b *memfdBackend) Remove(name string) error {
	b.mu.Lock()
	mf := b.files[name]
	delete(b.files, name)
	b.mu.Unlock()
	if mf != nil {
		return mf.f.Close()
	}
	return nil
}

// held is the total size of the files the backend holds.
func (b *memfdBackend) held() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n int64
	for _, mf := range b.files {
		n += mf.size.Load()
	}
	return n
}

// release closes every file, freeing its memory.
func (b *memfdBackend) release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for name, mf := range b.files {
		mf.f.Close()
		delete(b.files, name)
	}
}

// memfdHandle is an open file. The backend owns the descriptor, which
// outlives the handle (closing a memfd's last descriptor frees it).
type memfdHandle struct {
	mf *memfdFile
}

func (h *memfdHandle) Write(p []byte) (int, error) {
	n, err := h.mf.f.Write(p)
	h.mf.size.Add(int64(n))
	return n, err
}

func (h *memfdHandle) Sync() error { return h.mf.f.Sync() }

func (h *memfdHandle) Close() error { return nil }
