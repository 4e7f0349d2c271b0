/**
 * @file
 * Thread-local allocation counting via replaceable operator new.
 *
 * Only the throwing single-object/array forms are replaced — they
 * are what std containers and every code path we care about call.
 * The matching operator delete stays the default (both the default
 * and this replacement allocate with malloc, so free pairs with
 * either). Sized/aligned/nothrow forms fall through to the
 * defaults, which on libstdc++ delegate to the replaced forms.
 */

#include "obs/alloc.hh"

#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AHQ_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define AHQ_ALLOC_COUNTING 0
#else
#define AHQ_ALLOC_COUNTING 1
#endif
#else
#define AHQ_ALLOC_COUNTING 1
#endif

namespace ahq::obs
{

namespace
{

thread_local std::uint64_t t_allocCount = 0;

} // namespace

std::uint64_t
threadAllocCount() noexcept
{
    return t_allocCount;
}

bool
allocCountingEnabled() noexcept
{
    return AHQ_ALLOC_COUNTING != 0;
}

} // namespace ahq::obs

#if AHQ_ALLOC_COUNTING

namespace
{

void *
countedAlloc(std::size_t size)
{
    ++ahq::obs::t_allocCount;
    if (size == 0)
        size = 1;
    for (;;) {
        if (void *p = std::malloc(size))
            return p;
        // Contract of the throwing forms: consult the new-handler
        // until allocation succeeds or no handler is installed.
        std::new_handler handler = std::get_new_handler();
        if (handler == nullptr)
            throw std::bad_alloc();
        handler();
    }
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

#endif // AHQ_ALLOC_COUNTING
