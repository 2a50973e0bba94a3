#include "common/logging.hh"

#include <cstdlib>
#include <vector>

#include "common/thread_annotations.hh"

namespace momsim
{

namespace
{

/** Serializes multi-line stderr dumps from concurrent worker threads. */
Mutex &
dumpMutex()
{
    static Mutex m;
    return m;
}

} // namespace

std::string
strfmt(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (len < 0) {
        va_end(args_copy);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args_copy);
    va_end(args_copy);
    return std::string(buf.data(), static_cast<size_t>(len));
}

void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const std::string &msg)
{
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

void
dumpRaw(const std::string &text)
{
    MutexLock lock(dumpMutex());
    std::fwrite(text.data(), 1, text.size(), stderr);
    std::fflush(stderr);
}

} // namespace momsim
