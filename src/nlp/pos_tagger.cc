#include "nlp/pos_tagger.h"

#include <unordered_set>

#include "common/string_util.h"
#include "nlp/lexicon.h"
#include "nlp/tokenizer.h"

namespace fexiot {
namespace {

const std::unordered_set<std::string>& Determiners() {
  static const std::unordered_set<std::string> kSet = {"the", "a", "an",
                                                       "this", "that", "any"};
  return kSet;
}

const std::unordered_set<std::string>& Prepositions() {
  static const std::unordered_set<std::string> kSet = {
      "in", "on", "at", "to", "of", "from", "over", "under", "into", "by"};
  return kSet;
}

const std::unordered_set<std::string>& Conjunctions() {
  static const std::unordered_set<std::string> kSet = {"and", "or", "if",
                                                       "when", "then", "but"};
  return kSet;
}

const std::unordered_set<std::string>& Pronouns() {
  static const std::unordered_set<std::string> kSet = {"i",  "you", "it",
                                                       "my", "your", "me"};
  return kSet;
}

const std::unordered_set<std::string>& CopulaVerbs() {
  static const std::unordered_set<std::string> kSet = {"is",  "are", "was",
                                                       "be", "been", "gets"};
  return kSet;
}

bool IsNumber(const std::string& w) {
  if (w.empty()) return false;
  for (char c : w) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

PosTag TagWord(const std::string& w) {
  const Lexicon& lex = Lexicon::Get();
  if (Determiners().count(w)) return PosTag::kDeterminer;
  if (Prepositions().count(w)) return PosTag::kPreposition;
  if (Conjunctions().count(w)) return PosTag::kConjunction;
  if (Pronouns().count(w)) return PosTag::kPronoun;
  if (IsNumber(w)) return PosTag::kNumber;
  if (CopulaVerbs().count(w)) return PosTag::kVerb;
  if (lex.IsActionVerb(w)) return PosTag::kVerb;
  if (lex.IsDeviceNoun(w)) return PosTag::kNoun;
  if (lex.IsStateWord(w)) return PosTag::kAdjective;
  // Suffix heuristics for open-class words.
  if (EndsWith(w, "ly")) return PosTag::kAdverb;
  if (EndsWith(w, "ing") || EndsWith(w, "ed")) return PosTag::kVerb;
  if (EndsWith(w, "ness") || EndsWith(w, "tion") || EndsWith(w, "ment") ||
      EndsWith(w, "er") || EndsWith(w, "or")) {
    return PosTag::kNoun;
  }
  return PosTag::kNoun;  // default open-class guess
}

}  // namespace

std::vector<TaggedToken> PosTagger::Tag(const std::string& sentence) {
  std::vector<TaggedToken> out;
  for (const auto& w : Tokenizer::Tokenize(sentence)) {
    out.push_back({w, TagWord(w)});
  }
  return out;
}

RuleParse PosTagger::Parse(const std::string& sentence) {
  RuleParse parse;
  parse.tokens = Tag(sentence);
  const Lexicon& lex = Lexicon::Get();

  // Clause split: tokens following "if"/"when" (until "then" or end) form
  // the trigger clause; everything else is the action clause.
  bool in_trigger = false;
  for (const auto& tok : parse.tokens) {
    if (tok.text == "if" || tok.text == "when") {
      in_trigger = true;
      continue;
    }
    if (tok.text == "then") {
      in_trigger = false;
      continue;
    }
    (in_trigger ? parse.trigger_clause : parse.action_clause)
        .push_back(tok.text);
  }

  for (const auto& tok : parse.tokens) {
    if (tok.tag == PosTag::kVerb && lex.IsActionVerb(tok.text)) {
      parse.verbs.push_back(tok.text);
    } else if (lex.IsDeviceNoun(tok.text)) {
      parse.objects.push_back(tok.text);
    } else if (lex.IsStateWord(tok.text)) {
      parse.states.push_back(tok.text);
    }
  }
  // Capture sensor-noun triggers ("smoke", "motion") that are not in the
  // device-noun set but have lexicon clusters.
  for (const auto& tok : parse.tokens) {
    if (tok.tag == PosTag::kNoun && !lex.IsDeviceNoun(tok.text) &&
        lex.ClusterId(tok.text) != 0 && !lex.IsStateWord(tok.text) &&
        !lex.IsActionVerb(tok.text)) {
      parse.objects.push_back(tok.text);
    }
  }
  return parse;
}

}  // namespace fexiot
