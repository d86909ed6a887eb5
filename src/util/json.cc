#include "util/json.hh"

#include "util/format.hh"

namespace uvolt::json
{

std::string
escaped(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strFormat("\\u{:04x}", static_cast<int>(c));
            else
                out.push_back(c);
        }
    }
    return out;
}

} // namespace uvolt::json
