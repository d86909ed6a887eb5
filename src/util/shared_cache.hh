/**
 * @file
 * The process-wide single-flight cache behind every shared fault
 * personality: BRAM chip models (pmbus::sharedChipModel), HBM weak-row
 * maps and MoRS weak-cell maps (mem::sharedHbmPersonality,
 * mem::sharedSramPersonality). A personality is immutable and a pure
 * function of its key, so every device of one die can alias it.
 */

#ifndef UVOLT_UTIL_SHARED_CACHE_HH
#define UVOLT_UTIL_SHARED_CACHE_HH

#include <charconv>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>

namespace uvolt
{

/**
 * One cache key from @a fields: strings length-prefixed, numbers in
 * decimal, floating-point values in shortest round-trip form, each field
 * closed by '|'. Two field lists that differ in any value (any bit of a
 * double) never share a key.
 */
template <typename... Fields>
std::string
cacheKey(const Fields &...fields)
{
    std::string key;
    const auto append = [&key](const auto &field) {
        using Field = std::decay_t<decltype(field)>;
        if constexpr (std::is_floating_point_v<Field>) {
            char digits[32];
            key.append(digits,
                       std::to_chars(digits, digits + sizeof digits, field)
                           .ptr);
        } else if constexpr (std::is_arithmetic_v<Field>) {
            key += std::to_string(field);
        } else {
            const std::string text(field);
            key += std::to_string(text.size());
            key += ':';
            key += text;
        }
        key += '|';
    };
    (append(fields), ...);
    return key;
}

/**
 * A keyed map of immutable values plus one mutex. The lock is held
 * across construction, so concurrent first requests for one key build
 * its value exactly once and every later request aliases it. Values are
 * never evicted: a process keeps one per distinct die it touched.
 */
template <typename T>
class SharedCache
{
  public:
    /** The value under @a key; @a make() (returning a T) builds it on
     *  the first request. Thread-safe. */
    template <typename Make>
    std::shared_ptr<const T>
    obtain(const std::string &key, Make &&make)
    {
        std::lock_guard lock(mutex_);
        std::shared_ptr<const T> &slot = values_[key];
        if (!slot)
            slot = std::make_shared<const T>(make());
        return slot;
    }

  private:
    std::mutex mutex_;
    std::map<std::string, std::shared_ptr<const T>> values_;
};

} // namespace uvolt

#endif // UVOLT_UTIL_SHARED_CACHE_HH
