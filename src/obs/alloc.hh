/**
 * @file
 * Thread-local heap-allocation counting.
 *
 * The perf_opt work (DESIGN.md §12) promises a zero-alloc steady
 * state for the epoch decision loop; this counter is how tests and
 * the span profiler verify it instead of trusting code review. A
 * replaceable global operator new increments a thread-local counter
 * before delegating to malloc, so `threadAllocCount()` deltas give
 * the exact number of heap allocations a region of code performed on
 * the calling thread — no sampling, no instrumentation flags.
 *
 * Under AddressSanitizer/ThreadSanitizer the replacement is compiled
 * out (the sanitizer runtimes intercept operator new themselves, and
 * double-interception breaks their bookkeeping); callers must branch
 * on `allocCountingEnabled()` rather than assume counts move.
 *
 * The counter is thread-local on purpose: spans measure the work of
 * the thread that opened them, and a cross-thread total would make
 * per-span deltas racy and meaningless.
 */

#ifndef AHQ_OBS_ALLOC_HH
#define AHQ_OBS_ALLOC_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace ahq::obs
{

/**
 * Heap allocations (operator new / new[]) performed by the calling
 * thread since it started. Monotonic; take deltas around a region
 * to count its allocations. Always 0 when counting is disabled.
 */
std::uint64_t threadAllocCount() noexcept;

/**
 * True when the counting operator new replacement is linked in
 * (i.e. not a sanitizer build).
 */
bool allocCountingEnabled() noexcept;

/**
 * Bump allocator for trace-event assembly.
 *
 * Events are built, rendered and written within one emission, so
 * their scratch space follows a strict stack discipline: mark() on
 * open, release() on close, blocks retained across events. After
 * the first few events warm the block list, assembling an event
 * performs zero heap allocations — closing the last allocating
 * path of the tracing-on epoch loop (DESIGN.md §13).
 *
 * Not thread-safe; use the per-thread instance from traceArena().
 */
class Arena
{
  public:
    /** A rewind point (current block + offset within it). */
    struct Mark
    {
        std::size_t block = 0;
        std::size_t offset = 0;
    };

    /** Bump-allocate n bytes (a fresh block when none has room). */
    char *alloc(std::size_t n)
    {
        while (blocks_.empty() ||
               n > blocks_[block_].size - off_) {
            if (!blocks_.empty() && block_ + 1 < blocks_.size()) {
                ++block_;
                off_ = 0;
            } else {
                addBlock(n);
            }
        }
        char *p = blocks_[block_].data.get() + off_;
        off_ += n;
        return p;
    }

    /**
     * Grow the most recent allocation in place. Succeeds only when
     * `p + old_size` is the current bump tip and the block has
     * room for `add` more bytes.
     */
    bool extend(const char *p, std::size_t old_size,
                std::size_t add)
    {
        if (blocks_.empty())
            return false;
        char *tip = blocks_[block_].data.get() + off_;
        if (p + old_size != tip ||
            add > blocks_[block_].size - off_)
            return false;
        off_ += add;
        return true;
    }

    Mark mark() const { return {block_, off_}; }

    /** Rewind to a mark; blocks are retained for reuse. */
    void release(const Mark &m)
    {
        block_ = m.block;
        off_ = m.offset;
    }

  private:
    struct Block
    {
        std::unique_ptr<char[]> data;
        std::size_t size = 0;
    };

    void addBlock(std::size_t need)
    {
        // The first block holds kFirstBlockBytes (or the request);
        // each later one doubles the last.
        const std::size_t last =
            blocks_.empty() ? kFirstBlockBytes / 2 : blocks_.back().size;
        const std::size_t size = need > last * 2 ? need : last * 2;
        blocks_.push_back({std::make_unique<char[]>(size), size});
        block_ = blocks_.size() - 1;
        off_ = 0;
    }

    static constexpr std::size_t kFirstBlockBytes = 4096;

    std::vector<Block> blocks_;
    std::size_t block_ = 0;
    std::size_t off_ = 0;
};

/** The calling thread's trace-assembly arena. */
Arena &traceArena();

/**
 * A grow-by-bump string living in an Arena. Mirrors the slice of
 * the std::string interface the JSON helpers use, so event payloads
 * can be assembled without touching the heap once the arena is
 * warm. Relocation on growth is a copy into a fresh arena region
 * (the old bytes stay until the enclosing mark is released).
 */
class ArenaString
{
  public:
    explicit ArenaString(Arena &arena, std::size_t reserve = 64)
        : arena_(&arena), data_(arena.alloc(reserve)),
          cap_(reserve)
    {
    }

    void push_back(char c)
    {
        if (len_ == cap_)
            grow(1);
        data_[len_++] = c;
    }

    void append(const char *p, std::size_t n)
    {
        if (n > cap_ - len_)
            grow(n);
        std::memcpy(data_ + len_, p, n);
        len_ += n;
    }

    /** Two-pointer append (std::to_chars result shape). */
    void append(const char *first, const char *last)
    {
        append(first, static_cast<std::size_t>(last - first));
    }

    ArenaString &operator+=(std::string_view s)
    {
        append(s.data(), s.size());
        return *this;
    }

    ArenaString &operator+=(const char *s)
    {
        return *this += std::string_view(s);
    }

    std::string_view view() const
    {
        return {data_, len_};
    }

    std::size_t size() const { return len_; }
    bool empty() const { return len_ == 0; }

  private:
    void grow(std::size_t need)
    {
        const std::size_t want =
            need > cap_ ? cap_ + need : cap_;
        if (arena_->extend(data_, cap_, want)) {
            cap_ += want;
            return;
        }
        char *moved = arena_->alloc(cap_ + want);
        std::memcpy(moved, data_, len_);
        data_ = moved;
        cap_ += want;
    }

    Arena *arena_;
    char *data_;
    std::size_t len_ = 0;
    std::size_t cap_;
};

} // namespace ahq::obs

#endif // AHQ_OBS_ALLOC_HH
