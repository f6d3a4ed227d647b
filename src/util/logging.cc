#include "util/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace surf {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::abort();
}

void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const std::string &msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace surf
