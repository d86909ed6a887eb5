#include "util/fsio.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

namespace uvolt
{

Expected<void>
writeFileAtomic(const std::string &path, std::string_view content,
                Errc error_code)
{
    const std::filesystem::path destination(path);
    if (destination.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(destination.parent_path(),
                                            ec);
    }

    const std::string temp = path + ".tmp";
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (!out) {
            return makeError(error_code,
                             "cannot open '{}' for writing", temp);
        }
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size()));
        out.flush();
        if (!out) {
            std::error_code ec;
            std::filesystem::remove(temp, ec);
            return makeError(error_code, "short write to '{}'", temp);
        }
    }

    if (std::rename(temp.c_str(), path.c_str()) != 0) {
        std::error_code ec;
        std::filesystem::remove(temp, ec);
        return makeError(error_code, "cannot rename '{}' over '{}'",
                         temp, path);
    }
    return {};
}

Expected<void>
appendFileRecord(const std::string &path, std::string_view record,
                 Errc error_code)
{
    const std::filesystem::path destination(path);
    if (destination.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(destination.parent_path(),
                                            ec);
    }

    std::string line;
    if (record.empty() || record.back() != '\n') {
        line.reserve(record.size() + 1);
        line.append(record).push_back('\n');
        record = line;
    }

    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                          0644);
    if (fd < 0) {
        return makeError(error_code, "cannot open '{}' for appending",
                         path);
    }
    // One write() call: O_APPEND makes the offset advance atomic, and a
    // single syscall keeps the record contiguous under concurrency.
    const ssize_t written = ::write(fd, record.data(), record.size());
    ::close(fd);
    if (written != static_cast<ssize_t>(record.size())) {
        return makeError(error_code, "short append to '{}' ({} of {})",
                         path, static_cast<long long>(written),
                         record.size());
    }
    return {};
}

} // namespace uvolt
