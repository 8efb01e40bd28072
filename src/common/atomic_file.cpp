#include "common/atomic_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/check.h"

namespace paintplace {

void write_file_atomically(const std::string& path,
                           const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      PP_CHECK_MSG(out.is_open(), "cannot open " << tmp << " for writing");
      write(out);
      out.flush();
      PP_CHECK_MSG(out.good(), "writing " << tmp << " failed");
    }
    PP_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                 "cannot rename " << tmp << " to " << path << ": " << std::strerror(errno));
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

}  // namespace paintplace
