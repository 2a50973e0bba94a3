/**
 * @file
 * parseUintStrict(): the one strict integer parser behind every numeric
 * CLI flag. All of @p text must be a base-@p base integer (base 0 also
 * takes 0x.. hex) in [@p lo, @p hi]; "4x", "abc", "", a sign or a value
 * past 2^64 rejects instead of truncating, wrapping or saturating.
 */

#ifndef MOMSIM_COMMON_INT_PARSE_HH
#define MOMSIM_COMMON_INT_PARSE_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace momsim
{

inline bool
parseUintStrict(const char *text, uint64_t lo, uint64_t hi, uint64_t &out,
                int base = 10)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, base);
    if (*text < '0' || *text > '9' || errno == ERANGE || *end != '\0' ||
        v < lo || v > hi)
        return false;
    out = v;
    return true;
}

} // namespace momsim

#endif // MOMSIM_COMMON_INT_PARSE_HH
