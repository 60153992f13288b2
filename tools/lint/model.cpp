#include "lint/model.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace sitam::lint {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

namespace {

void record_allow(Stripped& out, std::size_t line, const std::string& comment) {
  const std::string tag = "sitam-lint:";
  std::size_t at = comment.find(tag);
  while (at != std::string::npos) {
    std::size_t open = comment.find("allow(", at);
    if (open == std::string::npos) break;
    const std::size_t close = comment.find(')', open);
    if (close == std::string::npos) break;
    std::string inside = comment.substr(open + 6, close - open - 6);
    std::string token;
    std::istringstream items(inside);
    while (std::getline(items, token, ',')) {
      const auto b = token.find_first_not_of(" \t");
      const auto e = token.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      token = token.substr(b, e - b + 1);
      for (const std::size_t covered : {line, line + 1}) {
        if (covered < out.allow.size()) out.allow[covered].insert(token);
      }
    }
    at = comment.find(tag, close);
  }
}

/// `// guarded_by(mutex_)` in a comment annotates the field declared on
/// the same line (trailing-comment style) or the next line (annotation
/// line above the field).
void record_guard(Stripped& out, std::size_t line, const std::string& comment) {
  const std::string tag = "guarded_by(";
  const std::size_t open = comment.find(tag);
  if (open == std::string::npos) return;
  const std::size_t close = comment.find(')', open + tag.size());
  if (close == std::string::npos) return;
  std::string name = comment.substr(open + tag.size(), close - open - tag.size());
  // The guard may itself be a call ("mutex()"): keep the parens.
  if (close + 1 < comment.size() && comment[close + 1] == ')' &&
      name.find('(') != std::string::npos) {
    name.push_back(')');
  }
  const auto b = name.find_first_not_of(" \t");
  const auto e = name.find_last_not_of(" \t");
  if (b == std::string::npos) return;
  name = name.substr(b, e - b + 1);
  for (const std::size_t covered : {line, line + 1}) {
    if (covered < out.guard.size() && out.guard[covered].empty()) {
      out.guard[covered] = name;
    }
  }
}

void record_comment(Stripped& out, std::size_t line,
                    const std::string& comment) {
  record_allow(out, line, comment);
  record_guard(out, line, comment);
}

}  // namespace

Stripped strip(const std::string& text) {
  std::vector<std::string> lines;
  {
    std::string current;
    for (const char c : text) {
      if (c == '\n') {
        lines.push_back(current);
        current.clear();
      } else if (c != '\r') {
        current.push_back(c);
      }
    }
    lines.push_back(current);
  }

  Stripped out;
  out.raw = lines;
  out.code.assign(lines.size(), "");
  out.allow.assign(lines.size(), {});
  out.guard.assign(lines.size(), "");

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string comment;        // Accumulates the current comment's text.
  std::size_t comment_line = 0;
  std::string raw_delim;      // )delim" terminator of the raw string.

  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& line = lines[li];
    std::string& code = out.code[li];
    if (state == State::kLineComment) state = State::kCode;
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      const char next = i + 1 < line.size() ? line[i + 1] : '\0';
      switch (state) {
        case State::kCode:
          if (c == '/' && next == '/') {
            state = State::kLineComment;
            comment = line.substr(i + 2);
            record_comment(out, li, comment);
            i = line.size();
          } else if (c == '/' && next == '*') {
            state = State::kBlockComment;
            comment.clear();
            comment_line = li;
            ++i;
          } else if (c == '"') {
            // Raw string? Look back for R / u8R / LR / UR / uR.
            std::size_t r = i;
            if (r > 0 && line[r - 1] == 'R' &&
                (r == 1 || !ident_char(line[r - 2]) || line[r - 2] == '8' ||
                 line[r - 2] == 'u' || line[r - 2] == 'U' ||
                 line[r - 2] == 'L')) {
              state = State::kRawString;
              std::size_t open = line.find('(', i);
              if (open == std::string::npos) open = line.size();
              raw_delim = ")" + line.substr(i + 1, open - i - 1) + "\"";
              code.push_back('"');
            } else {
              state = State::kString;
              code.push_back('"');
            }
          } else if (c == '\'') {
            state = State::kChar;
            code.push_back('\'');
          } else {
            code.push_back(c);
          }
          break;
        case State::kLineComment:
          break;  // Unreachable within the loop; reset per line above.
        case State::kBlockComment:
          if (c == '*' && next == '/') {
            record_comment(out, comment_line, comment);
            if (li != comment_line) record_comment(out, li, comment);
            state = State::kCode;
            ++i;
          } else {
            comment.push_back(c);
          }
          break;
        case State::kString:
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            code.push_back('"');
            state = State::kCode;
          }
          break;
        case State::kChar:
          if (c == '\\') {
            ++i;
          } else if (c == '\'') {
            code.push_back('\'');
            state = State::kCode;
          }
          break;
        case State::kRawString: {
          const std::size_t end = line.find(raw_delim, i);
          if (end == std::string::npos) {
            i = line.size();
          } else {
            i = end + raw_delim.size() - 1;
            code.push_back('"');
            state = State::kCode;
          }
          break;
        }
      }
    }
    if (state == State::kString || state == State::kChar) {
      state = State::kCode;  // Unterminated literal; don't poison the file.
    }
  }
  // A directive on a comment-only line covers the first code line below it,
  // even across a multi-line comment block.
  for (std::size_t li = 0; li + 1 < out.code.size(); ++li) {
    if (out.code[li].find_first_not_of(" \t") == std::string::npos) {
      out.allow[li + 1].insert(out.allow[li].begin(), out.allow[li].end());
      if (out.guard[li + 1].empty()) out.guard[li + 1] = out.guard[li];
    }
  }
  return out;
}

std::size_t find_word(const std::string& line, const std::string& word,
                      std::size_t from) {
  std::size_t at = line.find(word, from);
  while (at != std::string::npos) {
    const bool left_ok = at == 0 || !ident_char(line[at - 1]);
    const std::size_t after = at + word.size();
    const bool right_ok = after >= line.size() || !ident_char(line[after]);
    if (left_ok && right_ok) return at;
    at = line.find(word, at + 1);
  }
  return std::string::npos;
}

bool has_word(const std::string& line, const std::string& word) {
  return find_word(line, word) != std::string::npos;
}

bool has_call(const std::string& line, const std::string& word) {
  std::size_t at = find_word(line, word);
  while (at != std::string::npos) {
    std::size_t i = at + word.size();
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i < line.size() && line[i] == '(') return true;
    at = find_word(line, word, at + 1);
  }
  return false;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string first_template_arg(const std::string& line, std::size_t open) {
  int depth = 0;
  std::string arg;
  for (std::size_t i = open; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '<') {
      ++depth;
      if (depth == 1) continue;
    } else if (c == '>') {
      --depth;
      if (depth == 0) return arg;
    } else if (c == ',' && depth == 1) {
      return arg;
    }
    if (depth >= 1) arg.push_back(c);
  }
  return "";
}

void emit_finding(const std::string& path, const Stripped& file,
                  std::size_t line_index, const char* rule,
                  std::string message, std::vector<Finding>& findings) {
  Finding f;
  f.file = path;
  f.line = static_cast<int>(line_index) + 1;
  f.rule = rule;
  f.message = std::move(message);
  const auto& allowed = file.allow[line_index];
  f.suppressed = allowed.count(rule) != 0 || allowed.count("*") != 0;
  findings.push_back(std::move(f));
}

// ---------------------------------------------------------------------------
// Scope/symbol model builder.

namespace {

/// Statement-head keywords that mark a non-variable statement.
bool is_declaration_noise(const std::string& head) {
  for (const char* kw :
       {"using", "typedef", "friend", "template", "namespace", "class",
        "struct", "union", "enum", "operator", "static_assert", "concept",
        "requires", "return", "if", "for", "while", "switch", "case",
        "goto", "delete", "throw", "public", "private", "protected"}) {
    if (has_word(head, kw)) return true;
  }
  return false;
}

/// Last identifier token of `head` that is not a pure number — the
/// declared name in "std::atomic<std::uint64_t> g_epoch" or "int x : 3".
std::string last_identifier(const std::string& head) {
  std::string name;
  std::string token;
  const auto flush = [&] {
    if (!token.empty() &&
        std::isdigit(static_cast<unsigned char>(token[0])) == 0) {
      name = token;
    }
    token.clear();
  };
  for (const char c : head) {
    if (ident_char(c)) {
      token.push_back(c);
    } else {
      flush();
    }
  }
  flush();
  return name;
}

/// Statement text before the initializer: everything up to the first '='.
std::string decl_head(const std::string& stmt) {
  return stmt.substr(0, stmt.find('='));
}

bool is_const_decl(const std::string& head) {
  if (has_word(head, "constexpr") || has_word(head, "consteval")) return true;
  // `const` only makes the *variable* immutable when nothing indirects
  // after it: `const char* p` and `std::atomic<const T*> a` declare
  // mutable variables (pointer-to-const / atomic-of-pointer-to-const),
  // while `char* const p` and `const int k` are genuinely const. Textual
  // proxy: a '*' or '&' after the last `const` word means the const binds
  // to a pointee, not the declared name.
  std::size_t last = std::string::npos;
  std::size_t from = 0;
  while (true) {
    const std::size_t hit = find_word(head, "const", from);
    if (hit == std::string::npos) break;
    last = hit;
    from = hit + 1;
  }
  if (last == std::string::npos) return false;
  return head.find_first_of("*&", last) == std::string::npos;
}

/// Does `pending` (text accumulated before a '{') read like a function
/// definition header? True when the brace follows a parameter list plus
/// optional qualifiers / trailing return / paren-style ctor-init list.
bool looks_like_function(const std::string& pending) {
  const std::size_t paren = pending.find('(');
  if (paren == std::string::npos) return false;
  // "int x = (a + b)" is an initializer, not a function — unless the '='
  // belongs to an operator name.
  if (pending.substr(0, paren).find('=') != std::string::npos &&
      !has_word(pending, "operator")) {
    return false;
  }
  const std::size_t last_close = pending.rfind(')');
  if (last_close == std::string::npos) return false;
  std::string tail = pending.substr(last_close + 1);
  if (tail.find("->") != std::string::npos) return true;  // Trailing return.
  // Remainder must be qualifier keywords only.
  std::string token;
  const auto token_ok = [&] {
    if (token.empty()) return true;
    for (const char* kw :
         {"const", "noexcept", "override", "final", "mutable", "try", "&",
          "&&"}) {
      if (token == kw) return true;
    }
    return false;
  };
  for (const char c : tail) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (!token_ok()) return false;
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  return token_ok();
}

/// Type name after the last class/struct/union keyword, skipping
/// attributes and "final".
std::string type_name(const std::string& pending) {
  std::size_t at = std::string::npos;
  for (const char* kw : {"class", "struct", "union"}) {
    std::size_t found = std::string::npos;
    std::size_t from = 0;
    while (true) {
      const std::size_t hit = find_word(pending, kw, from);
      if (hit == std::string::npos) break;
      found = hit;
      from = hit + 1;
    }
    if (found != std::string::npos &&
        (at == std::string::npos || found > at)) {
      at = found;
    }
  }
  if (at == std::string::npos) return "";
  std::size_t i = pending.find_first_not_of(" \t", pending.find(' ', at));
  std::string name;
  while (i != std::string::npos && i < pending.size()) {
    if (pending.compare(i, 2, "[[") == 0) {  // Skip attributes.
      const std::size_t close = pending.find("]]", i);
      if (close == std::string::npos) break;
      i = pending.find_first_not_of(" \t", close + 2);
      continue;
    }
    break;
  }
  while (i != std::string::npos && i < pending.size() &&
         ident_char(pending[i])) {
    name.push_back(pending[i++]);
  }
  if (name == "final" || name == "alignas") return "";
  return name;
}

struct Frame {
  enum Kind { kNamespace, kClass, kFunction, kBlock, kInit, kOther };
  Kind kind = kOther;
  std::size_t model_index = 0;  ///< classes/functions index for kClass/kFunction.
};

}  // namespace

TuModel build_model(const Stripped& file) {
  TuModel model;
  std::vector<Frame> frames;
  std::string pending;
  std::size_t pending_line = 0;
  bool pending_active = false;

  const auto innermost = [&]() -> Frame::Kind {
    return frames.empty() ? Frame::kNamespace : frames.back().kind;
  };
  const auto enclosing_class = [&]() -> const ClassDecl* {
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      if (it->kind == Frame::kClass) return &model.classes[it->model_index];
      if (it->kind == Frame::kFunction || it->kind == Frame::kBlock) break;
    }
    return nullptr;
  };
  const auto reset_pending = [&] {
    pending.clear();
    pending_active = false;
  };

  const auto process_statement = [&](std::size_t end_line) {
    const auto b = pending.find_first_not_of(" \t");
    if (b == std::string::npos) return;
    const std::string stmt = pending.substr(b);
    const Frame::Kind scope = innermost();
    if (scope == Frame::kInit || scope == Frame::kOther) return;
    const std::string head = decl_head(stmt);
    if (is_declaration_noise(head)) return;

    if (scope == Frame::kNamespace) {
      if (head.find('(') != std::string::npos) return;  // Prototype/fn-ptr.
      const std::string name = last_identifier(head);
      if (name.empty()) return;
      VarDecl var;
      var.name = name;
      var.decl_text = head;
      var.line = pending_line;
      var.is_extern = has_word(head, "extern");
      var.is_const = is_const_decl(head);
      model.globals.push_back(std::move(var));
    } else if (scope == Frame::kClass) {
      if (head.find('(') != std::string::npos) return;  // Method decl.
      const std::string name = last_identifier(head);
      if (name.empty()) return;
      FieldDecl field;
      field.name = name;
      field.decl_text = head;
      field.line = pending_line;
      field.is_static = has_word(head, "static");
      field.is_const = is_const_decl(head);
      for (std::size_t li = pending_line;
           li <= end_line && li < file.guard.size(); ++li) {
        if (!file.guard[li].empty()) {
          field.guard = file.guard[li];
          break;
        }
      }
      model.classes[frames.back().model_index].fields.push_back(
          std::move(field));
    } else {  // kFunction / kBlock: only statics are interesting.
      if (!has_word(head, "static") && !has_word(head, "thread_local")) {
        return;
      }
      if (head.find('(') != std::string::npos) return;
      if (is_const_decl(head)) return;
      const std::string name = last_identifier(head);
      if (name.empty()) return;
      VarDecl var;
      var.name = name;
      var.decl_text = head;
      var.line = pending_line;
      var.is_static_local = true;
      model.local_statics.push_back(std::move(var));
    }
  };

  const auto& code = file.code;
  for (std::size_t li = 0; li < code.size(); ++li) {
    const std::string& line = code[li];
    {
      const std::size_t first = line.find_first_not_of(" \t");
      if (first != std::string::npos && line[first] == '#') continue;
    }
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (c == '{') {
        Frame frame;
        const Frame::Kind scope = innermost();
        const bool at_decl_scope =
            scope == Frame::kNamespace || scope == Frame::kClass;
        if (scope == Frame::kInit) {
          frame.kind = Frame::kInit;  // Nested initializer brace.
        } else if (has_word(pending, "namespace")) {
          frame.kind = Frame::kNamespace;
        } else if (has_word(pending, "enum")) {
          frame.kind = Frame::kOther;  // Enumerators, not statements.
        } else if ((has_word(pending, "class") ||
                    has_word(pending, "struct") ||
                    has_word(pending, "union")) &&
                   pending.find('(') == std::string::npos &&
                   pending.find('=') == std::string::npos) {
          frame.kind = Frame::kClass;
          ClassDecl decl;
          decl.name = type_name(pending);
          decl.body_begin = li;
          frame.model_index = model.classes.size();
          model.classes.push_back(std::move(decl));
        } else if (at_decl_scope && looks_like_function(pending)) {
          frame.kind = Frame::kFunction;
          FunctionDecl fn;
          fn.signature = pending;
          std::string qualifier;
          std::string name;
          {
            const std::size_t paren = pending.find('(');
            std::size_t end = paren;
            while (end > 0 && std::isspace(static_cast<unsigned char>(
                                  pending[end - 1])) != 0) {
              --end;
            }
            std::size_t begin = end;
            while (begin > 0 && ident_char(pending[begin - 1])) --begin;
            name = pending.substr(begin, end - begin);
            if (begin > 0 && pending[begin - 1] == '~') name = "~" + name;
            if (begin >= 2 && pending[begin - 1] == ':' &&
                pending[begin - 2] == ':') {
              std::size_t qe = begin - 2;
              std::size_t qb = qe;
              while (qb > 0 && (ident_char(pending[qb - 1]) ||
                                pending[qb - 1] == '>' ||
                                pending[qb - 1] == '<')) {
                --qb;
              }
              qualifier = pending.substr(qb, qe - qb);
            }
          }
          if (qualifier.empty()) {
            if (const ClassDecl* cls = enclosing_class()) {
              qualifier = cls->name;
            }
          }
          fn.qualifier = qualifier;
          fn.name = name;
          fn.body_begin = li;
          frame.model_index = model.functions.size();
          model.functions.push_back(std::move(fn));
        } else if (at_decl_scope && pending_active) {
          // "g_epoch{0}" / "= { ... }" — a brace initializer: skip its
          // contents but keep the declaration text for the ';'.
          frame.kind = Frame::kInit;
        } else {
          frame.kind = Frame::kBlock;
        }
        if (frame.kind != Frame::kInit) reset_pending();
        frames.push_back(frame);
      } else if (c == '}') {
        if (!frames.empty()) {
          const Frame frame = frames.back();
          frames.pop_back();
          if (frame.kind == Frame::kFunction) {
            model.functions[frame.model_index].body_end = li;
          } else if (frame.kind == Frame::kClass) {
            model.classes[frame.model_index].body_end = li;
          }
          if (frame.kind != Frame::kInit) reset_pending();
        } else {
          reset_pending();
        }
      } else if (c == ';') {
        if (innermost() != Frame::kInit) {
          process_statement(li);
          reset_pending();
        }
      } else if (c == ':' && innermost() == Frame::kClass &&
                 (i + 1 >= line.size() || line[i + 1] != ':') &&
                 (i == 0 || line[i - 1] != ':')) {
        // Access specifier? Clear "public" / "private" / "protected".
        const auto b = pending.find_first_not_of(" \t");
        const std::string trimmed =
            b == std::string::npos ? "" : pending.substr(b);
        const auto e = trimmed.find_last_not_of(" \t");
        const std::string word =
            e == std::string::npos ? "" : trimmed.substr(0, e + 1);
        if (word == "public" || word == "private" || word == "protected") {
          reset_pending();
        } else {
          pending.push_back(c);
        }
      } else {
        if (innermost() == Frame::kInit) continue;  // Initializer contents.
        if (!pending_active &&
            std::isspace(static_cast<unsigned char>(c)) != 0) {
          continue;
        }
        if (!pending_active) {
          pending_active = true;
          pending_line = li;
        }
        pending.push_back(c);
      }
    }
    if (innermost() != Frame::kInit) pending.push_back(' ');
  }
  return model;
}

// ---------------------------------------------------------------------------
// Include scanning (SL014 input).

std::vector<IncludeRef> scan_includes(const Stripped& file) {
  std::vector<IncludeRef> refs;
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    if (file.code[li].find("#include") == std::string::npos) continue;
    const std::string& line = file.raw[li];
    const std::size_t inc = line.find("#include");
    if (inc == std::string::npos) continue;
    const std::size_t open = line.find('"', inc);
    if (open == std::string::npos) continue;  // Angle include: system.
    const std::size_t close = line.find('"', open + 1);
    if (close == std::string::npos) continue;
    const std::string target = line.substr(open + 1, close - open - 1);
    if (target.empty() || target[0] == '.' ||
        target.find("..") != std::string::npos) {
      continue;  // Relative include — SL008's concern, unresolvable here.
    }
    refs.push_back(IncludeRef{static_cast<int>(li) + 1, target});
  }
  return refs;
}

// ---------------------------------------------------------------------------
// Content hashing (incremental cache key).

std::uint64_t text_hash(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64.
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace sitam::lint
