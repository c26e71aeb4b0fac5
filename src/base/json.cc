#include "json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace smtsim
{

// ----------------------------------------------------------------
// Value accessors
// ----------------------------------------------------------------

void
Json::set(const std::string &key, Json value)
{
    if (type_ != Type::Object)
        throw JsonParseError("set() on non-object");
    for (auto &kv : obj_) {
        if (kv.first == key) {
            kv.second = std::move(value);
            return;
        }
    }
    obj_.emplace_back(key, std::move(value));
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &kv : obj_) {
        if (kv.first == key)
            return &kv.second;
    }
    return nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    const Json *j = find(key);
    if (!j)
        throw JsonParseError("missing member \"" + key + "\"");
    return *j;
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    static const std::vector<std::pair<std::string, Json>> empty;
    return type_ == Type::Object ? obj_ : empty;
}

void
Json::push(Json value)
{
    if (type_ != Type::Array)
        throw JsonParseError("push() on non-array");
    arr_.push_back(std::move(value));
}

std::size_t
Json::size() const
{
    if (type_ == Type::Array)
        return arr_.size();
    if (type_ == Type::Object)
        return obj_.size();
    return 0;
}

const Json &
Json::at(std::size_t i) const
{
    if (type_ != Type::Array || i >= arr_.size())
        throw JsonParseError("array index out of range");
    return arr_[i];
}

bool
Json::asBool() const
{
    if (type_ != Type::Bool)
        throw JsonParseError("not a bool");
    return bool_;
}

std::int64_t
Json::asInt() const
{
    if (type_ == Type::Int)
        return int_;
    if (type_ == Type::Double)
        return static_cast<std::int64_t>(dbl_);
    throw JsonParseError("not a number");
}

std::uint64_t
Json::asU64() const
{
    return static_cast<std::uint64_t>(asInt());
}

double
Json::asDouble() const
{
    if (type_ == Type::Int)
        return static_cast<double>(int_);
    if (type_ == Type::Double)
        return dbl_;
    throw JsonParseError("not a number");
}

const std::string &
Json::asString() const
{
    if (type_ != Type::String)
        throw JsonParseError("not a string");
    return str_;
}

// ----------------------------------------------------------------
// Writer
// ----------------------------------------------------------------

namespace
{

/** Append @p s escaped; runs that need no escape go in one step. */
void
appendEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::size_t run = 0;    // start of the pending unescaped run
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: {
            const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xf]};
            out.append(esc, sizeof(esc));
          }
        }
    }
    out.append(s.data() + run, s.size() - run);
}

void
newlineIndent(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

} // namespace

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

void
Json::writeImpl(std::string &out, int indent, int depth) const
{
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Int: {
        char buf[24];
        const auto res = std::to_chars(buf, buf + sizeof(buf), int_);
        out.append(buf, res.ptr);
        break;
      }
      case Type::Double: {
        if (!std::isfinite(dbl_)) {
            out += "null";  // JSON has no inf/nan
            break;
        }
        char buf[40];
        const int n = std::snprintf(buf, sizeof(buf), "%.17g", dbl_);
        out.append(buf, static_cast<std::size_t>(n));
        break;
      }
      case Type::String:
        out += '"';
        appendEscaped(out, str_);
        out += '"';
        break;
      case Type::Array: {
        out += '[';
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                out += ',';
            newlineIndent(out, indent, depth + 1);
            arr_[i].writeImpl(out, indent, depth + 1);
        }
        if (!arr_.empty())
            newlineIndent(out, indent, depth);
        out += ']';
        break;
      }
      case Type::Object: {
        out += '{';
        for (std::size_t i = 0; i < obj_.size(); ++i) {
            if (i)
                out += ',';
            newlineIndent(out, indent, depth + 1);
            out += '"';
            appendEscaped(out, obj_[i].first);
            out += "\":";
            if (indent > 0)
                out += ' ';
            obj_[i].second.writeImpl(out, indent, depth + 1);
        }
        if (!obj_.empty())
            newlineIndent(out, indent, depth);
        out += '}';
        break;
      }
    }
}

void
Json::write(std::ostream &os, int indent) const
{
    os << dump(indent);
}

std::string
Json::dump(int indent) const
{
    std::string out;
    writeImpl(out, indent, 0);
    return out;
}

// ----------------------------------------------------------------
// Parser (recursive descent)
// ----------------------------------------------------------------

namespace
{

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Json
    document()
    {
        Json v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        throw JsonParseError("JSON parse error at offset " +
                                 std::to_string(pos_) + ": " + what,
                             pos_);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    Json
    value()
    {
        skipWs();
        const char c = peek();
        switch (c) {
          case '{': return objectValue();
          case '[': return arrayValue();
          case '"': return Json(stringValue());
          case 't':
            if (consumeLiteral("true"))
                return Json(true);
            fail("bad literal");
          case 'f':
            if (consumeLiteral("false"))
                return Json(false);
            fail("bad literal");
          case 'n':
            if (consumeLiteral("null"))
                return Json();
            fail("bad literal");
          default:
            return numberValue();
        }
    }

    /**
     * Bound container recursion: deeply nested input must fail with
     * a diagnostic, not exhaust the host stack.
     */
    struct DepthGuard
    {
        explicit DepthGuard(Parser &p) : parser(p)
        {
            if (++parser.depth_ > Json::kMaxParseDepth)
                parser.fail("nesting deeper than " +
                            std::to_string(Json::kMaxParseDepth) +
                            " levels");
        }
        ~DepthGuard() { --parser.depth_; }
        Parser &parser;
    };

    Json
    objectValue()
    {
        const DepthGuard guard(*this);
        expect('{');
        Json obj = Json::object();
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            skipWs();
            std::string key = stringValue();
            skipWs();
            expect(':');
            obj.set(key, value());
            skipWs();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == '}') {
                ++pos_;
                return obj;
            }
            fail("expected ',' or '}'");
        }
    }

    Json
    arrayValue()
    {
        const DepthGuard guard(*this);
        expect('[');
        Json arr = Json::array();
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push(value());
            skipWs();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                return arr;
            }
            fail("expected ',' or ']'");
        }
    }

    std::string
    stringValue()
    {
        expect('"');
        std::string out;
        while (true) {
            // Copy the run up to the next quote or escape at once.
            const std::size_t run = pos_;
            while (pos_ < text_.size() && text_[pos_] != '"' &&
                   text_[pos_] != '\\')
                ++pos_;
            out.append(text_.data() + run, pos_ - run);
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (pos_ >= text_.size())
                fail("unterminated escape");
            c = text_[pos_++];
            switch (c) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // UTF-8 encode (surrogate pairs not recombined;
                // cache records only ever escape control chars).
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xc0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (cp >> 12));
                    out += static_cast<char>(0x80 |
                                             ((cp >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
              }
              default:
                fail("bad escape character");
            }
        }
    }

    Json
    numberValue()
    {
        const std::size_t start = pos_;
        bool is_double = false;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() && isDigit(text_[pos_]))
            ++pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '.' || text_[pos_] == 'e' ||
             text_[pos_] == 'E')) {
            is_double = true;
            while (pos_ < text_.size() &&
                   (isDigit(text_[pos_]) || text_[pos_] == '.' ||
                    text_[pos_] == 'e' || text_[pos_] == 'E' ||
                    text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
        }
        if (pos_ == start)
            fail("expected a value");
        if (!is_double) {
            std::int64_t v = 0;
            const char *end = text_.data() + pos_;
            const auto res =
                std::from_chars(text_.data() + start, end, v);
            if (res.ec == std::errc() && res.ptr == end)
                return Json(v);
            // Integer overflow (e.g. > 2^63): keep it as a double.
        }
        const std::string tok(text_.substr(start, pos_ - start));
        try {
            return Json(std::stod(tok));
        } catch (const std::exception &) {
            fail("bad number \"" + tok + "\"");
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

Json
Json::parse(std::string_view text)
{
    return Parser(text).document();
}

} // namespace smtsim
