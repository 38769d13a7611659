#pragma once

#include <string>
#include <vector>

namespace fexiot {

/// \brief Coarse part-of-speech tags produced by the rule-based tagger.
enum class PosTag {
  kVerb,
  kNoun,
  kAdjective,
  kAdverb,
  kDeterminer,
  kPreposition,
  kConjunction,
  kPronoun,
  kNumber,
  kOther,
};

/// \brief One tagged token.
struct TaggedToken {
  std::string text;
  PosTag tag = PosTag::kOther;
};

/// \brief Linguistic elements extracted from one automation-rule sentence,
/// mirroring what the paper obtains from spaCy dependency parses: the root
/// verb (main task), direct objects (devices), and state/property words.
struct RuleParse {
  std::vector<TaggedToken> tokens;
  /// Root action verbs (e.g. "close" in "close the water valve ...").
  std::vector<std::string> verbs;
  /// Device/direct-object nouns (e.g. "valve", "light").
  std::vector<std::string> objects;
  /// State / property words (e.g. "on", "detected", "low").
  std::vector<std::string> states;
  /// Trigger-clause tokens (after "if"/"when") vs action-clause tokens.
  std::vector<std::string> trigger_clause;
  std::vector<std::string> action_clause;
};

/// \brief Rule-based POS tagger + shallow clause parser for automation-rule
/// English. Substitutes for the paper's spaCy pipeline: the domain lexicon
/// resolves known verbs/nouns/states and suffix heuristics cover the rest.
class PosTagger {
 public:
  /// Tags each token of \p sentence.
  static std::vector<TaggedToken> Tag(const std::string& sentence);

  /// Full shallow parse: POS tags plus verb/object/state extraction and
  /// trigger/action clause split (on "if"/"when"/"then" markers).
  static RuleParse Parse(const std::string& sentence);
};

}  // namespace fexiot
