#include "json_value.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/format.hh"
#include "util/logging.hh"

namespace uvolt::json
{

namespace
{

const char *
kindName(Value::Kind kind)
{
    switch (kind) {
      case Value::Kind::Null:
        return "null";
      case Value::Kind::Bool:
        return "bool";
      case Value::Kind::Number:
        return "number";
      case Value::Kind::String:
        return "string";
      case Value::Kind::Array:
        return "array";
      case Value::Kind::Object:
        return "object";
    }
    return "?";
}

} // namespace

/** Strict recursive-descent parser over the whole document. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Expected<Value>
    document()
    {
        Value root;
        if (auto parsed = value(root); !parsed.ok())
            return parsed.error();
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing characters after the document");
        return root;
    }

  private:
    Expected<void>
    value(Value &out)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return fail("unexpected end of document");
        const char c = text_[pos_];
        if (c == '{')
            return object(out);
        if (c == '[')
            return array(out);
        if (c == '"') {
            out.kind_ = Value::Kind::String;
            return string(out.string_);
        }
        if (c == 't' || c == 'f')
            return boolean(out);
        if (c == 'n') {
            if (text_.substr(pos_, 4) != "null")
                return fail("expected 'null'");
            pos_ += 4;
            out.kind_ = Value::Kind::Null;
            return {};
        }
        return number(out);
    }

    Expected<void>
    object(Value &out)
    {
        out.kind_ = Value::Kind::Object;
        ++pos_; // '{'
        skipSpace();
        if (peek() == '}') {
            ++pos_;
            return {};
        }
        while (true) {
            skipSpace();
            std::string key;
            if (auto parsed = string(key); !parsed.ok())
                return parsed.error();
            skipSpace();
            if (peek() != ':')
                return fail("expected ':' after object key");
            ++pos_;
            Value member;
            if (auto parsed = value(member); !parsed.ok())
                return parsed.error();
            out.members_.emplace_back(std::move(key), std::move(member));
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return {};
            }
            return fail("expected ',' or '}' in object");
        }
    }

    Expected<void>
    array(Value &out)
    {
        out.kind_ = Value::Kind::Array;
        ++pos_; // '['
        skipSpace();
        if (peek() == ']') {
            ++pos_;
            return {};
        }
        while (true) {
            Value item;
            if (auto parsed = value(item); !parsed.ok())
                return parsed.error();
            out.items_.push_back(std::move(item));
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return {};
            }
            return fail("expected ',' or ']' in array");
        }
    }

    Expected<void>
    string(std::string &out)
    {
        if (peek() != '"')
            return fail("expected '\"'");
        ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return {};
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return fail("unterminated escape");
                const char e = text_[pos_++];
                switch (e) {
                  case '"':
                    out.push_back('"');
                    break;
                  case '\\':
                    out.push_back('\\');
                    break;
                  case '/':
                    out.push_back('/');
                    break;
                  case 'n':
                    out.push_back('\n');
                    break;
                  case 'r':
                    out.push_back('\r');
                    break;
                  case 't':
                    out.push_back('\t');
                    break;
                  case 'b':
                    out.push_back('\b');
                    break;
                  case 'f':
                    out.push_back('\f');
                    break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad hex digit in \\u escape");
                    }
                    // The writers only emit \u00XX control codes; wider
                    // code points would need UTF-8 expansion.
                    if (code > 0xFF)
                        return fail("\\u escape beyond \\u00ff "
                                    "unsupported");
                    out.push_back(static_cast<char>(code));
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                continue;
            }
            out.push_back(c);
        }
        return fail("unterminated string");
    }

    Expected<void>
    boolean(Value &out)
    {
        out.kind_ = Value::Kind::Bool;
        if (text_.substr(pos_, 4) == "true") {
            pos_ += 4;
            out.bool_ = true;
            return {};
        }
        if (text_.substr(pos_, 5) == "false") {
            pos_ += 5;
            out.bool_ = false;
            return {};
        }
        return fail("expected 'true' or 'false'");
    }

    Expected<void>
    number(Value &out)
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            return fail("expected a value");
        const std::string token(text_.substr(start, pos_ - start));
        char *end = nullptr;
        const double parsed = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return fail("malformed number '{}'", token);
        out.kind_ = Value::Kind::Number;
        out.number_ = parsed;
        return {};
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    template <typename... Args>
    Error
    fail(std::string_view fmt, Args &&...args) const
    {
        std::size_t line = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n')
                ++line;
        }
        return makeError(Errc::corruptCache, "json line {}: {}", line,
                         strFormat(fmt, std::forward<Args>(args)...));
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

Expected<Value>
Value::parse(std::string_view text)
{
    return Parser(text).document();
}

Expected<Value>
Value::parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        return makeError(Errc::cacheMiss, "cannot open '{}' for reading",
                         path);
    }
    std::ostringstream content;
    content << in.rdbuf();
    auto parsed = parse(content.str());
    if (!parsed.ok()) {
        return makeError(parsed.error().code, "{}: {}", path,
                         parsed.error().message);
    }
    return parsed;
}

bool
Value::boolean() const
{
    if (kind_ != Kind::Bool)
        fatal("json: boolean() on a {}", kindName(kind_));
    return bool_;
}

double
Value::number() const
{
    if (kind_ != Kind::Number)
        fatal("json: number() on a {}", kindName(kind_));
    return number_;
}

const std::string &
Value::string() const
{
    if (kind_ != Kind::String)
        fatal("json: string() on a {}", kindName(kind_));
    return string_;
}

const std::vector<Value> &
Value::items() const
{
    if (kind_ != Kind::Array)
        fatal("json: items() on a {}", kindName(kind_));
    return items_;
}

const std::vector<std::pair<std::string, Value>> &
Value::members() const
{
    if (kind_ != Kind::Object)
        fatal("json: members() on a {}", kindName(kind_));
    return members_;
}

const Value *
Value::find(std::string_view key) const
{
    if (kind_ != Kind::Object)
        fatal("json: find('{}') on a {}", std::string(key),
              kindName(kind_));
    for (const auto &[name, value] : members_) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

const Value &
Value::at(std::string_view key) const
{
    if (const Value *value = find(key))
        return *value;
    fatal("json: object has no member '{}'", std::string(key));
}

double
Value::numberOr(std::string_view key, double fallback) const
{
    const Value *value = find(key);
    return value && value->isNumber() ? value->number() : fallback;
}

std::string
Value::stringOr(std::string_view key, const std::string &fallback) const
{
    const Value *value = find(key);
    return value && value->isString() ? value->string() : fallback;
}

} // namespace uvolt::json
