#include "xml/writer.h"

#include <vector>

namespace xclean {

namespace {

void WriteNode(const XmlTree& tree, NodeId node, const WriteOptions& options,
               int indent_level, std::string& out) {
  auto indent = [&]() {
    if (options.indent) {
      for (int i = 0; i < indent_level; ++i) out += "  ";
    }
  };
  auto newline = [&]() {
    if (options.indent) out.push_back('\n');
  };

  const std::string& label = tree.label(node);

  indent();
  out.push_back('<');
  // "@name" nodes rendered as elements get a parse-safe label.
  bool is_attr_node = !label.empty() && label[0] == '@';
  std::string element_label = label;
  if (is_attr_node) element_label[0] = '_';
  out += element_label;

  // Collect leading attribute children if they are to be inlined.
  std::vector<NodeId> element_children;
  for (NodeId c = tree.FirstChild(node); c != kInvalidNode;
       c = tree.NextSibling(c)) {
    const std::string& child_label = tree.label(c);
    bool child_is_attr = !child_label.empty() && child_label[0] == '@';
    if (child_is_attr && options.attribute_nodes_as_attributes &&
        tree.FirstChild(c) == kInvalidNode) {
      out.push_back(' ');
      out += child_label.substr(1);
      out += "=\"";
      out += EscapeXmlText(tree.text(c));
      out.push_back('"');
    } else {
      element_children.push_back(c);
    }
  }

  const std::string& text = tree.text(node);
  if (element_children.empty() && text.empty()) {
    out += "/>";
    newline();
    return;
  }
  out.push_back('>');

  if (element_children.empty()) {
    // Pure text node: keep it on one line.
    out += EscapeXmlText(text);
    out += "</";
    out += element_label;
    out.push_back('>');
    newline();
    return;
  }

  newline();
  if (!text.empty()) {
    indent();
    if (options.indent) out += "  ";
    out += EscapeXmlText(text);
    newline();
  }
  for (NodeId c : element_children) {
    WriteNode(tree, c, options, indent_level + 1, out);
  }
  indent();
  out += "</";
  out += element_label;
  out.push_back('>');
  newline();
}

}  // namespace

std::string EscapeXmlText(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string WriteXml(const XmlTree& tree, NodeId node,
                     const WriteOptions& options) {
  std::string out;
  WriteNode(tree, node, options, 0, out);
  return out;
}

}  // namespace xclean
