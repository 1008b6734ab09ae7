// pb_alloc: an LD_PRELOAD heap-allocation counter for the benchmark.
//
// Every malloc-family call (malloc, calloc, realloc, memalign,
// posix_memalign, aligned_alloc -- operator new lands in malloc) adds one to
// the calling thread's private slot and forwards to glibc's own allocator,
// so the program's heap behaviour is unchanged.  Slots are cache-line
// padded and written only by their owner, which keeps the counter to a
// thread-local load and a plain store per call.
//
// Readout:
//   * in-process: pb_alloc_count() (found with dlsym) sums the slots;
//   * at exit: when PB_ALLOC_OUT names a file, "<pid> <count>\n" is appended
//     to it (raw syscalls, no allocation).
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>

extern "C" {
void* __libc_malloc(size_t);
void* __libc_calloc(size_t, size_t);
void* __libc_realloc(void*, size_t);
void* __libc_memalign(size_t, size_t);
}

namespace {

constexpr unsigned kSlots = 1024;  // the last slot is shared by overflow threads

struct alignas(64) Slot {
  std::atomic<std::uint64_t> n{0};
};

Slot g_slots[kSlots];
std::atomic<unsigned> g_next_slot{0};
__thread Slot* t_slot __attribute__((tls_model("initial-exec"))) = nullptr;

inline void bump() {
  Slot* s = t_slot;
  if (s == nullptr) {
    const unsigned i = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    s = &g_slots[i < kSlots - 1 ? i : kSlots - 1];
    t_slot = s;
  }
  if (s == &g_slots[kSlots - 1]) {
    s->n.fetch_add(1, std::memory_order_relaxed);
  } else {
    s->n.store(s->n.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  }
}

std::uint64_t total() {
  std::uint64_t sum = 0;
  for (const Slot& s : g_slots) sum += s.n.load(std::memory_order_relaxed);
  return sum;
}

// Appends "<pid> <count>\n" using only async-signal-safe calls.
void write_report(const char* path, std::uint64_t count) {
  char buf[64];
  int len = 0;
  char digits[24];
  int nd = 0;
  long pid = static_cast<long>(getpid());
  do {
    digits[nd++] = static_cast<char>('0' + pid % 10);
    pid /= 10;
  } while (pid > 0);
  while (nd > 0) buf[len++] = digits[--nd];
  buf[len++] = ' ';
  do {
    digits[nd++] = static_cast<char>('0' + count % 10);
    count /= 10;
  } while (count > 0);
  while (nd > 0) buf[len++] = digits[--nd];
  buf[len++] = '\n';
  const int fd = open(path, O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd < 0) return;
  ssize_t off = 0;
  while (off < len) {
    const ssize_t put = write(fd, buf + off, static_cast<size_t>(len - off));
    if (put <= 0) break;
    off += put;
  }
  close(fd);
}

__attribute__((destructor)) void on_unload() {
  const char* path = getenv("PB_ALLOC_OUT");
  if (path != nullptr && path[0] != '\0') write_report(path, total());
}

}  // namespace

extern "C" {

__attribute__((visibility("default"))) std::uint64_t pb_alloc_count() {
  return total();
}

void* malloc(size_t size) {
  bump();
  return __libc_malloc(size);
}

void* calloc(size_t count, size_t size) {
  bump();
  return __libc_calloc(count, size);
}

void* realloc(void* ptr, size_t size) {
  bump();
  return __libc_realloc(ptr, size);
}

void* memalign(size_t align, size_t size) {
  bump();
  return __libc_memalign(align, size);
}

void* aligned_alloc(size_t align, size_t size) {
  bump();
  return __libc_memalign(align, size);
}

int posix_memalign(void** out, size_t align, size_t size) {
  if (align < sizeof(void*) || (align & (align - 1)) != 0) return EINVAL;
  bump();
  void* p = __libc_memalign(align, size);
  if (p == nullptr) return ENOMEM;
  *out = p;
  return 0;
}

}  // extern "C"
